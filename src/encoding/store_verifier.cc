#include "encoding/store_verifier.h"

#include <memory>
#include <utility>

#include "btree/btree.h"
#include "encoding/bp_index.h"
#include "encoding/dewey.h"
#include "encoding/path_synopsis.h"
#include "encoding/sidecar.h"
#include "encoding/string_store.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace nok {

namespace {

// Beyond this many issues the store is toast and more detail is noise.
constexpr size_t kMaxIssues = 100;

void AddIssue(VerifyReport* report, std::string component,
              std::string detail) {
  if (report->issues.size() >= kMaxIssues) {
    report->truncated = true;
    return;
  }
  report->issues.push_back(
      VerifyIssue{std::move(component), std::move(detail)});
}

/// Reads every page of one paged component file, reporting each page that
/// fails (checksum mismatch, short file, ...).
void ScrubPagedFile(const std::string& dir, const char* name,
                    uint32_t page_size, PageFormat format,
                    VerifyReport* report) {
  const std::string path = dir + "/" + name;
  if (!FileExists(path)) {
    AddIssue(report, name, "file is missing");
    return;
  }
  auto file = OpenPosixFileReadOnly(path);
  if (!file.ok()) {
    AddIssue(report, name, file.status().ToString());
    return;
  }
  auto pager = Pager::Open(std::move(file).ValueOrDie(), page_size, format);
  if (!pager.ok()) {
    AddIssue(report, name, pager.status().ToString());
    return;
  }
  const auto& p = pager.ValueOrDie();
  std::vector<char> buf(page_size);
  for (PageId id = 0; id < p->page_count(); ++id) {
    ++report->pages_checked;
    Status s = p->ReadPage(id, buf.data());
    if (!s.ok()) {
      AddIssue(report, name, s.ToString());
    }
  }
}

/// What a sidecar holds that its rebuild from the tree string does not;
/// empty when they agree.
std::string SidecarDiff(const BpIndex& side, const BpIndex& fresh) {
  if (side.node_count() != fresh.node_count()) {
    return "sidecar holds " + std::to_string(side.node_count()) +
           " nodes but the tree string holds " +
           std::to_string(fresh.node_count());
  }
  uint64_t bad_bits = 0;
  for (uint64_t pos = 0; pos < fresh.bit_count(); ++pos) {
    if (side.IsOpen(pos) != fresh.IsOpen(pos)) ++bad_bits;
  }
  uint64_t bad_tags = 0;
  for (uint64_t rank = 0; rank < fresh.node_count(); ++rank) {
    if (side.TagAtRank(rank) != fresh.TagAtRank(rank)) ++bad_tags;
  }
  if (bad_bits == 0 && bad_tags == 0) return "";
  return "sidecar disagrees with the tree string: " +
         std::to_string(bad_bits) + " parenthesis bit(s), " +
         std::to_string(bad_tags) + " preorder tag(s)";
}

std::string SidecarDiff(const PathSynopsis& side,
                        const PathSynopsis& fresh) {
  if (side.path_count() != fresh.path_count()) {
    return "sidecar holds " + std::to_string(side.path_count()) +
           " distinct paths but the tree string holds " +
           std::to_string(fresh.path_count());
  }
  uint64_t bad_paths = 0;
  for (uint32_t i = 0; i < fresh.path_count(); ++i) {
    if (side.node(i).tag != fresh.node(i).tag ||
        side.node(i).count != fresh.node(i).count ||
        side.node(i).parent != fresh.node(i).parent) {
      ++bad_paths;
    }
  }
  if (bad_paths == 0) return "";
  return "sidecar disagrees with the tree string on " +
         std::to_string(bad_paths) + " path record(s)";
}

/// One persisted sidecar, when present.  Loading validates the envelope
/// (magic, format version, CRC-32C, payload shape), so a flipped byte
/// surfaces as Corruption.  The CRC only vouches that the bytes match
/// what was written; when the epochs agree, a rebuild from the tree
/// string catches a sidecar that is internally consistent but no longer
/// describes this document.  A mismatched-epoch sidecar is stale, not
/// damaged: no open ever trusts it (it is rebuilt exactly as if the file
/// were missing), and a crash between a WAL commit and the next writable
/// open legitimately leaves one behind, so it is not diffed.
template <typename T>
void VerifySidecar(const std::string& dir, const char* name,
                   const char* what, DocumentStore* store,
                   VerifyReport* report) {
  const std::string path = dir + "/" + name;
  if (!FileExists(path)) return;
  auto file = OpenPosixFileReadOnly(path);
  if (!file.ok()) {
    AddIssue(report, name, file.status().ToString());
    return;
  }
  auto side = LoadSidecar<T>(file.ValueOrDie().get());
  if (!side.ok()) {
    AddIssue(report, name, side.status().ToString());
    return;
  }
  if (side.ValueOrDie()->epoch() != store->epoch()) return;
  auto fresh = T::Build(store->tree(), store->epoch());
  if (!fresh.ok()) {
    AddIssue(report, name,
             std::string("cannot recompute ") + what +
                 " from the page chain: " + fresh.status().ToString());
    return;
  }
  std::string diff = SidecarDiff(*side.ValueOrDie(), *fresh.ValueOrDie());
  if (!diff.empty()) AddIssue(report, name, std::move(diff));
}

}  // namespace

Result<VerifyReport> VerifyStoreDir(const std::string& dir,
                                    DocumentStoreOptions options) {
  if (dir.empty()) {
    return Status::InvalidArgument("verify requires a store directory");
  }
  if (!FileExists(dir + "/" + store_files::kTree)) {
    return Status::NotFound("no document store in " + dir + " (" +
                            store_files::kTree + " is missing)");
  }
  VerifyReport report;

  // Pass 1: raw page scrub of every paged file, in the format the tree
  // meta page records.
  PageFormat format = PageFormat::kRaw;
  {
    auto tree_file = OpenPosixFileReadOnly(dir + "/" + store_files::kTree);
    if (!tree_file.ok()) {
      AddIssue(&report, store_files::kTree, tree_file.status().ToString());
      return report;
    }
    auto checksummed =
        StringStore::SniffChecksummed(tree_file.ValueOrDie().get());
    if (!checksummed.ok()) {
      AddIssue(&report, store_files::kTree,
               checksummed.status().ToString());
      return report;
    }
    format = checksummed.ValueOrDie() ? PageFormat::kChecksummed
                                      : PageFormat::kRaw;
  }
  ScrubPagedFile(dir, store_files::kTree, options.page_size, format,
                 &report);
  for (const char* idx :
       {store_files::kTagIdx, store_files::kValIdx, store_files::kIdIdx,
        store_files::kPathIdx}) {
    ScrubPagedFile(dir, idx, options.index_page_size, format, &report);
  }
  if (!report.ok()) {
    // Damaged pages would poison the structural passes with noise.
    return report;
  }

  // Pass 2: structural open (magics, versions, page chain, epochs).
  // Read-only: a writable open self-heals damaged index sidecars
  // (rebuild + re-persist), which would erase exactly the evidence the
  // later passes exist to report.  A scrub must never mutate the store.
  options.dir = dir;
  options.read_only = true;
  auto store_or = DocumentStore::OpenDir(options);
  if (!store_or.ok()) {
    AddIssue(&report, "store", store_or.status().ToString());
    return report;
  }
  auto store = std::move(store_or).ValueOrDie();

  // Still pass 2: the page headers' symbol counts.  BP-tier queries map
  // an index position to its BP bit through the counts the in-memory
  // headers imply (StringStore::SymbolRank), so every chain page's
  // header-derived count must equal the symbols its body decodes to, and
  // the counts must sum to two per node.  Checked before the B+i pass:
  // a damaged header misplaces every later node, and the root cause must
  // not drown behind the issue cap.
  StringStore* tree = store->tree();
  uint64_t header_symbols = 0;
  bool counts_ok = true;
  for (size_t i = 0; i < tree->chain_length(); ++i) {
    const PageId page = tree->chain_page(i);
    auto from_header = tree->HeaderSymbolCount(i);
    auto decoded = tree->DecodedSymbolCount(page);
    if (!from_header.ok()) {
      AddIssue(&report, store_files::kTree,
               from_header.status().ToString());
    } else if (!decoded.ok()) {
      AddIssue(&report, store_files::kTree,
               "page " + std::to_string(page) +
                   ": cannot decode the body: " +
                   decoded.status().ToString());
    } else if (from_header.ValueOrDie() != decoded.ValueOrDie()) {
      AddIssue(&report, store_files::kTree,
               "page " + std::to_string(page) + ": header implies " +
                   std::to_string(from_header.ValueOrDie()) +
                   " symbols but the body holds " +
                   std::to_string(decoded.ValueOrDie()));
    }
    if (from_header.ok()) header_symbols += from_header.ValueOrDie();
    counts_ok = counts_ok && from_header.ok() && decoded.ok() &&
                from_header.ValueOrDie() == decoded.ValueOrDie();
  }
  if (counts_ok && header_symbols != 2 * tree->node_count()) {
    AddIssue(&report, store_files::kTree,
             "page headers imply " + std::to_string(header_symbols) +
                 " symbols but the tree records " +
                 std::to_string(tree->node_count()) + " nodes");
  }

  // Pass 3: every B+i entry against an independent navigation of the
  // tree string, and its value record against the data file.
  BTreeIterator it = store->id_index()->NewIterator();
  Status s = it.SeekToFirst();
  if (!s.ok()) {
    AddIssue(&report, "B+i", s.ToString());
    return report;
  }
  while (it.Valid()) {
    ++report.entries_checked;
    auto dewey_or = DeweyId::Decode(it.key());
    if (!dewey_or.ok()) {
      AddIssue(&report, "B+i",
               "undecodable Dewey key: " + dewey_or.status().ToString());
    } else {
      const DeweyId dewey = std::move(dewey_or).ValueOrDie();
      auto nav = store->Navigate(dewey);
      if (!nav.ok()) {
        AddIssue(&report, "B+i",
                 "entry for " + dewey.ToString() +
                     " has no matching node in the tree string: " +
                     nav.status().ToString());
      } else {
        uint64_t pos = 0, offset = 0;
        bool has_value = false;
        Status ps = index_keys::ParseIdPayload(it.value(), &pos,
                                               &has_value, &offset);
        if (!ps.ok()) {
          AddIssue(&report, "B+i",
                   "bad payload for " + dewey.ToString() + ": " +
                       ps.ToString());
        } else {
          if (store->positions_fresh() &&
              pos != store->tree()->GlobalPos(nav.ValueOrDie())) {
            AddIssue(&report, "B+i",
                     "stored position " + std::to_string(pos) + " for " +
                         dewey.ToString() + " disagrees with the tree (" +
                         std::to_string(store->tree()->GlobalPos(
                             nav.ValueOrDie())) +
                         ") although positions are marked fresh");
          }
          if (has_value) {
            auto value = store->values()->Read(offset);
            if (!value.ok()) {
              AddIssue(&report, "values.dat",
                       "record for " + dewey.ToString() + ": " +
                           value.status().ToString());
            }
          }
        }
      }
    }
    if (report.issues.size() >= kMaxIssues) {
      report.truncated = true;
      break;
    }
    s = it.Next();
    if (!s.ok()) {
      AddIssue(&report, "B+i", s.ToString());
      break;
    }
  }

  // The node count in the tree meta must agree with the B+i entry count
  // (every node has exactly one entry).
  if (!report.truncated &&
      report.entries_checked != store->tree()->node_count()) {
    AddIssue(&report, "B+i",
             "index holds " + std::to_string(report.entries_checked) +
                 " entries but the tree records " +
                 std::to_string(store->tree()->node_count()) + " nodes");
  }

  // Pass 4: per-page tag summaries.  Recompute every chain page's summary
  // from its body and compare against the summary the store navigates by
  // (loaded from the v3/v4 meta extension or rebuilt on open).  A stale
  // summary cannot cause wrong answers on its own (false positives only
  // slow scans down), but a summary missing a present tag makes
  // NextOpenWithTag skip matches, so a mismatch is real damage.
  if (tree->options().use_tag_summaries) {
    for (size_t i = 0; i < tree->chain_length(); ++i) {
      const PageId page = tree->chain_page(i);
      auto expect = tree->ComputeTagSummary(page);
      if (!expect.ok()) {
        AddIssue(&report, store_files::kTree,
                 "page " + std::to_string(page) +
                     ": cannot recompute tag summary: " +
                     expect.status().ToString());
      } else if (tree->tag_summary(page) != expect.ValueOrDie()) {
        AddIssue(&report, store_files::kTree,
                 "page " + std::to_string(page) + ": stored tag summary " +
                     std::to_string(tree->tag_summary(page)) +
                     " disagrees with the page body (expected " +
                     std::to_string(expect.ValueOrDie()) + ")");
      }
      if (report.issues.size() >= kMaxIssues) {
        report.truncated = true;
        break;
      }
    }
  }

  // Passes 5 and 6: the persisted sidecars.
  VerifySidecar<BpIndex>(dir, store_files::kBpIndex, "the bitvector",
                         store.get(), &report);
  VerifySidecar<PathSynopsis>(dir, store_files::kSynopsis, "the path trie",
                              store.get(), &report);
  return report;
}

}  // namespace nok
