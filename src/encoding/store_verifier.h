// Offline integrity scrub for a document store directory (`nokq verify`).
//
// Six passes, each independent of the machinery it checks:
//
//   1. Page scrub: every page of every paged component file (the tree
//      string and the four B+ tree indexes) is read raw through a Pager in
//      the store's format, so checksum mismatches are reported per page —
//      including pages the higher layers would never visit.
//   2. Structural open: DocumentStore::OpenDir, which validates magics,
//      format versions, the page-chain walk, and cross-component epochs;
//      then every chain page's header-derived symbol count (what BP-tier
//      position mapping relies on) against the symbols its body decodes
//      to, and their sum against two per node.
//   3. Index cross-check: every B+i (Dewey -> position/value) entry is
//      re-derived by pure FIRST-CHILD / FOLLOWING-SIBLING navigation of
//      the tree string and compared against the stored entry, and its
//      value record is read (which verifies the record CRC).
//   4. Tag-summary cross-check: when the store navigates by per-page tag
//      summaries, every chain page's summary is recomputed from the page
//      body and compared against the word the scans consult, so a stale
//      or corrupted summary cannot silently cause skipped matches.
//   5, 6. Sidecar cross-check: each persisted sidecar (tree.bpx, then
//      synopsis.pds) is parsed (envelope and payload) and, when its epoch
//      matches the store's, diffed against a fresh rebuild from the page
//      chain.  A stale-epoch sidecar is not reported: no open trusts it
//      (DESIGN.md section 6, "Sidecars").
//
// Every file is opened read-only, so the scrub also runs on a store whose
// files are not writable.  The scrub never repairs anything; it reports.
// Repair is rebuilding from the source document or restoring from a copy.

#ifndef NOKXML_ENCODING_STORE_VERIFIER_H_
#define NOKXML_ENCODING_STORE_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "encoding/document_store.h"

namespace nok {

/// One problem found by the scrub.
struct VerifyIssue {
  std::string component;  ///< File or subsystem ("tree.nok", "B+i", ...).
  std::string detail;     ///< Human-readable description (names page ids).
};

/// Outcome of VerifyStoreDir.
struct VerifyReport {
  uint64_t pages_checked = 0;    ///< Pages read across all paged files.
  uint64_t entries_checked = 0;  ///< B+i entries cross-checked.
  bool truncated = false;        ///< Issue list hit its cap.
  std::vector<VerifyIssue> issues;

  bool ok() const { return issues.empty(); }
};

/// Scrubs the store in dir.  The Result is an error only when the scrub
/// itself cannot run (e.g. the directory does not exist); damage found in
/// the store is reported through VerifyReport::issues.
Result<VerifyReport> VerifyStoreDir(const std::string& dir,
                                    DocumentStoreOptions options = {});

}  // namespace nok

#endif  // NOKXML_ENCODING_STORE_VERIFIER_H_
