// The checksummed envelope shared by the store's derived sidecar files —
// tree.bpx (bp_index.h) and synopsis.pds (path_synopsis.h).  Layout, trust
// keys, persistence and verifier policy: DESIGN.md section 6, "Sidecars".
//
// A payload type encodes only its payload; SealSidecar wraps it, and
// OpenSidecar validates the envelope and hands back a bounds-checked
// SidecarReader, so no decoder ever sizes an allocation from a header
// field the byte length cannot back.

#ifndef NOKXML_ENCODING_SIDECAR_H_
#define NOKXML_ENCODING_SIDECAR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "storage/file.h"

namespace nok {

/// The sidecar formats; each has its own magic and message prefix.
enum class SidecarKind {
  kBpIndex,       ///< "NOKBPIDX", tree.bpx.
  kPathSynopsis,  ///< "NOKPSYNP", synopsis.pds.
};

/// The header fields that decide whether a persisted sidecar is trusted:
/// the store generation it was built at and the document's node count.
struct SidecarStamp {
  uint64_t epoch = 0;
  uint64_t node_count = 0;
};

/// Bounds-checked cursor over a validated sidecar payload.
class SidecarReader {
 public:
  SidecarReader(SidecarKind kind, std::string_view payload)
      : kind_(kind), rest_(payload) {}

  /// Consumes `count` items of `width` bytes and returns their first
  /// byte.  Corruption when they do not fit in the bytes left; the size
  /// is checked without overflow, so a huge count is refused before any
  /// caller allocates for it.
  Result<const char*> Take(uint64_t count, size_t width);

  /// Corruption unless every payload byte was consumed.
  Status Finish() const;

 private:
  SidecarKind kind_;
  std::string_view rest_;
};

/// Wraps `payload` in the envelope: magic, format version, stamp, and a
/// CRC-32C over the stamp and the payload.
std::string SealSidecar(SidecarKind kind, const SidecarStamp& stamp,
                        std::string_view payload);

/// Validates the envelope of `bytes` (size, magic, format version, CRC),
/// fills *stamp, and returns a reader over the payload.
Result<SidecarReader> OpenSidecar(SidecarKind kind, std::string_view bytes,
                                  SidecarStamp* stamp);

/// Reads a whole sidecar file and Deserializes it as a T.
template <typename T>
Result<std::unique_ptr<T>> LoadSidecar(File* file) {
  const uint64_t size = file->Size();
  std::string bytes(static_cast<size_t>(size), '\0');
  Slice out;
  NOK_RETURN_IF_ERROR(
      file->ReadAt(0, static_cast<size_t>(size), bytes.data(), &out));
  return T::Deserialize(out.ToStringView());
}

/// Replaces the content of `file` with value.Serialize() and syncs.
template <typename T>
Status SaveSidecar(const T& value, File* file) {
  const std::string bytes = value.Serialize();
  NOK_RETURN_IF_ERROR(file->Truncate(0));
  NOK_RETURN_IF_ERROR(file->WriteAt(0, Slice(bytes)));
  return file->Sync();
}

}  // namespace nok

#endif  // NOKXML_ENCODING_SIDECAR_H_
