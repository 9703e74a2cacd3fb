#include "encoding/sidecar.h"

#include "common/coding.h"
#include "common/hash.h"
#include "common/slice.h"

namespace nok {
namespace {

// Envelope, all integers little-endian fixed-width:
//   +0 magic (8) | +8 format version (4) | +12 epoch (8) |
//   +20 node count (8) | +28 CRC-32C of [12, 28) + payload (4) | +32 payload
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kStampOffset = 12;
constexpr size_t kStampSize = 16;
constexpr size_t kHeaderSize = 32;

uint64_t Magic(SidecarKind kind) {
  return kind == SidecarKind::kBpIndex ? 0x4e4f4b4250494458ull   // NOKBPIDX
                                       : 0x4e4f4b5053594e50ull;  // NOKPSYNP
}

Status Damaged(SidecarKind kind, const std::string& what) {
  return Status::Corruption(std::string(kind == SidecarKind::kBpIndex
                                            ? "bp sidecar: "
                                            : "synopsis sidecar: ") +
                            what);
}

}  // namespace

Result<const char*> SidecarReader::Take(uint64_t count, size_t width) {
  if (count > rest_.size() / width) {
    return Damaged(kind_, "payload size mismatch (" + std::to_string(count) +
                              " items of " + std::to_string(width) +
                              " bytes in " + std::to_string(rest_.size()) +
                              " bytes)");
  }
  const char* data = rest_.data();
  rest_.remove_prefix(static_cast<size_t>(count) * width);
  return data;
}

Status SidecarReader::Finish() const {
  if (!rest_.empty()) {
    return Damaged(kind_, "payload size mismatch (" +
                              std::to_string(rest_.size()) +
                              " trailing bytes)");
  }
  return Status::OK();
}

std::string SealSidecar(SidecarKind kind, const SidecarStamp& stamp,
                        std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  PutFixed64(&out, Magic(kind));
  PutFixed32(&out, kFormatVersion);
  PutFixed64(&out, stamp.epoch);
  PutFixed64(&out, stamp.node_count);
  // The CRC covers the stamp too: a flipped epoch byte would otherwise
  // deserialize cleanly and masquerade as a current generation.
  uint32_t crc = Crc32c(Slice(out.data() + kStampOffset, kStampSize));
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  PutFixed32(&out, crc);
  out.append(payload);
  return out;
}

Result<SidecarReader> OpenSidecar(SidecarKind kind, std::string_view bytes,
                                  SidecarStamp* stamp) {
  if (bytes.size() < kHeaderSize) return Damaged(kind, "truncated header");
  const char* p = bytes.data();
  if (DecodeFixed64(p) != Magic(kind)) return Damaged(kind, "bad magic");
  const uint32_t version = DecodeFixed32(p + 8);
  if (version != kFormatVersion) {
    return Damaged(kind,
                   "unsupported format version " + std::to_string(version));
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  uint32_t crc = Crc32c(Slice(p + kStampOffset, kStampSize));
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  if (crc != DecodeFixed32(p + kStampOffset + kStampSize)) {
    return Damaged(kind, "payload checksum mismatch");
  }
  stamp->epoch = DecodeFixed64(p + kStampOffset);
  stamp->node_count = DecodeFixed64(p + kStampOffset + 8);
  return SidecarReader(kind, payload);
}

}  // namespace nok
