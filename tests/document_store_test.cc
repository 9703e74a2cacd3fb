#include <gtest/gtest.h>

#include <filesystem>

#include "encoding/document_store.h"
#include "tests/oracle.h"
#include "xml/dom.h"

namespace nok {
namespace {

constexpr const char* kBibXml =
    "<bib>"
    "<book year=\"1994\"><title>TCP/IP</title><author><last>Stevens"
    "</last><first>W.</first></author><price>65.95</price></book>"
    "<book year=\"2000\"><title>Data on the Web</title><author><last>"
    "Abiteboul</last><first>Serge</first></author><price>39.95</price>"
    "</book>"
    "</bib>";

std::unique_ptr<DocumentStore> Build(const std::string& xml) {
  auto r = DocumentStore::Build(xml, DocumentStore::Options());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).ValueOrDie();
}

TEST(DocumentStoreTest, StatsMatchDom) {
  auto store = Build(kBibXml);
  auto dom = DomTree::Parse(kBibXml);
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ(store->stats().node_count, dom->node_count());
  EXPECT_EQ(store->stats().max_depth, dom->max_depth());
  EXPECT_EQ(store->stats().distinct_tags, dom->distinct_tags());
  EXPECT_DOUBLE_EQ(store->stats().avg_depth, dom->avg_depth());
  EXPECT_GT(store->stats().tree_bytes, 0u);
  EXPECT_GT(store->stats().tag_index_bytes, 0u);
  EXPECT_GT(store->stats().value_index_bytes, 0u);
  EXPECT_GT(store->stats().id_index_bytes, 0u);
  EXPECT_GT(store->stats().data_bytes, 0u);
}

TEST(DocumentStoreTest, ValueOfReadsThroughIndexes) {
  auto store = Build(kBibXml);
  // /bib/book[0]/author/last = 0.1.1.0 (after @year at index 0).
  const DeweyId last({0, 0, 2, 0});
  auto value = store->ValueOf(last);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  ASSERT_TRUE(value->has_value());
  EXPECT_EQ(**value, "Stevens");
  // The book element itself has no text value.
  auto book = store->ValueOf(DeweyId({0, 0}));
  ASSERT_TRUE(book.ok());
  EXPECT_FALSE(book->has_value());
  // Attribute node value.
  auto year = store->ValueOf(DeweyId({0, 0, 0}));
  ASSERT_TRUE(year.ok());
  ASSERT_TRUE(year->has_value());
  EXPECT_EQ(**year, "1994");
  // Unknown node.
  auto nothing = store->ValueOf(DeweyId({0, 9, 9}));
  ASSERT_TRUE(nothing.ok());
  EXPECT_FALSE(nothing->has_value());
}

TEST(DocumentStoreTest, NodesWithTagInDocumentOrder) {
  auto store = Build(kBibXml);
  auto book_tag = store->tags()->Lookup("book");
  ASSERT_TRUE(book_tag.has_value());
  auto books = store->NodesWithTag(*book_tag);
  ASSERT_TRUE(books.ok());
  ASSERT_EQ(books->size(), 2u);
  EXPECT_EQ((*books)[0].dewey.ToString(), "0.0");
  EXPECT_EQ((*books)[1].dewey.ToString(), "0.1");
  // Stored positions round-trip to the right physical node.
  EXPECT_TRUE(store->positions_fresh());
  auto pos = store->tree()->PosForGlobal((*books)[1].pos);
  ASSERT_TRUE(pos.ok());
  auto tag_at = store->tree()->TagAt(*pos);
  ASSERT_TRUE(tag_at.ok());
  EXPECT_EQ(*tag_at, *book_tag);
  EXPECT_EQ(store->CountTag(*book_tag), 2u);

  auto limited = store->NodesWithTag(*book_tag, 1);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 1u);
}

TEST(DocumentStoreTest, NodesWithValueVerifiesCollisions) {
  auto store = Build(kBibXml);
  auto stevens = store->NodesWithValue(Slice("Stevens"));
  ASSERT_TRUE(stevens.ok());
  ASSERT_EQ(stevens->size(), 1u);
  EXPECT_EQ((*stevens)[0].dewey.ToString(), "0.0.2.0");
  auto absent = store->NodesWithValue(Slice("not-here"));
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(absent->empty());

  auto estimate = store->EstimateValueCount(Slice("Stevens"), 10);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, 1u);
}

TEST(DocumentStoreTest, LocateWalksToAnyNode) {
  auto store = Build(kBibXml);
  auto dom = DomTree::Parse(kBibXml);
  ASSERT_TRUE(dom.ok());
  // Every DOM node must be locatable and carry the right tag.
  ForEachNode(dom->root(), [&](const DomNode* node) {
    const DeweyId id = DomDewey(node);
    auto pos = store->Locate(id);
    ASSERT_TRUE(pos.ok()) << id.ToString();
    auto tag = store->tree()->TagAt(*pos);
    ASSERT_TRUE(tag.ok());
    EXPECT_EQ(store->tags()->Name(*tag), node->name) << id.ToString();
  });
  EXPECT_TRUE(store->Locate(DeweyId({0, 7})).status().IsNotFound());
  EXPECT_FALSE(store->Locate(DeweyId({1})).ok());
}

TEST(DocumentStoreTest, PersistsAndReopens) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_docstore_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  DocumentStore::Options options;
  options.dir = dir;
  {
    auto store = DocumentStore::Build(kBibXml, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->stats().node_count, 15u);
    auto stevens = (*store)->NodesWithValue(Slice("Stevens"));
    ASSERT_TRUE(stevens.ok());
    EXPECT_EQ(stevens->size(), 1u);
    auto value = (*store)->ValueOf(DeweyId({0, 0, 2, 0}));
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(**value, "Stevens");
  }
  std::filesystem::remove_all(dir);
}

TEST(DocumentStoreTest, BuildRejectsMalformedXml) {
  auto r = DocumentStore::Build("<a><b></a>", DocumentStore::Options());
  EXPECT_FALSE(r.ok());
}

TEST(DocumentStoreTest, FailedBuildLeavesNoComponentFiles) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_failed_build_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  // A 300-deep chain makes Dewey keys too large for 4 KiB index pages.
  std::string xml;
  for (int i = 0; i < 300; ++i) xml += "<a>";
  for (int i = 0; i < 300; ++i) xml += "</a>";
  DocumentStore::Options options;
  options.dir = dir;
  auto r = DocumentStore::Build(xml, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  for (const char* name :
       {store_files::kTree, store_files::kValues, store_files::kDict,
        store_files::kTagIdx, store_files::kValIdx, store_files::kIdIdx,
        store_files::kPathIdx, store_files::kStale, store_files::kBpIndex,
        store_files::kSynopsis}) {
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + name)) << name;
  }

  // A Build refused over an existing store leaves that store intact.
  ASSERT_TRUE(DocumentStore::Build(kBibXml, options).ok());
  auto again = DocumentStore::Build(kBibXml, options);
  EXPECT_TRUE(again.status().IsAlreadyExists()) << again.status().ToString();
  auto reopened = DocumentStore::OpenDir(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().node_count, 15u);
  std::filesystem::remove_all(dir);
}

TEST(DocumentStoreTest, IdIndexCoversEveryNode) {
  auto store = Build(kBibXml);
  EXPECT_EQ(store->id_index()->num_entries(), store->stats().node_count);
  EXPECT_EQ(store->tag_index()->num_entries(), store->stats().node_count);
}

}  // namespace
}  // namespace nok

// ---------------------------------------------------------------------------
// Path index (B+p, the Section 8 extension).

namespace nok {
namespace {

TEST(DocumentStoreTest, PathIndexCoversEveryNode) {
  auto store = Build(kBibXml);
  EXPECT_EQ(store->path_index()->num_entries(), store->stats().node_count);
  EXPECT_GT(store->stats().path_index_bytes, 0u);

  auto key_for = [&](std::initializer_list<const char*> names) {
    std::vector<TagId> path;
    for (const char* name : names) {
      auto id = store->tags()->Lookup(name);
      EXPECT_TRUE(id.has_value()) << name;
      path.push_back(*id);
    }
    return path;
  };

  auto lasts = store->NodesWithPath(
      key_for({"bib", "book", "author", "last"}));
  ASSERT_TRUE(lasts.ok());
  ASSERT_EQ(lasts->size(), 2u);
  EXPECT_EQ((*lasts)[0].dewey.ToString(), "0.0.2.0");
  EXPECT_EQ((*lasts)[1].dewey.ToString(), "0.1.2.0");

  auto count = store->EstimatePathCount(key_for({"bib", "book"}), 0);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);

  // A path that exists tag-wise but not shape-wise.
  auto none = store->NodesWithPath(key_for({"bib", "author"}));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(DocumentStoreTest, PathIndexSurvivesRefreshAfterUpdate) {
  auto store = Build(kBibXml);
  ASSERT_TRUE(store
                  ->InsertSubtree(DeweyId({0}), 0,
                                  "<book year=\"1990\"><title>T0</title>"
                                  "<author><last>New</last></author>"
                                  "<price>5</price></book>")
                  .ok());
  ASSERT_TRUE(store->RefreshPositions().ok());
  EXPECT_EQ(store->path_index()->num_entries(),
            store->stats().node_count);
  std::vector<TagId> path{*store->tags()->Lookup("bib"),
                          *store->tags()->Lookup("book"),
                          *store->tags()->Lookup("author"),
                          *store->tags()->Lookup("last")};
  auto lasts = store->NodesWithPath(path);
  ASSERT_TRUE(lasts.ok());
  EXPECT_EQ(lasts->size(), 3u);
  EXPECT_EQ((*lasts)[0].dewey.ToString(), "0.0.2.0");  // The new book.
}

}  // namespace
}  // namespace nok
