#ifndef DOMINODB_WAL_LOG_FORMAT_H_
#define DOMINODB_WAL_LOG_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace dominodb::wal {

/// On-disk record framing:
///
///   [masked crc32c : fixed32]   over (type byte + payload)
///   [payload length : varint32]
///   [type : 1 byte]
///   [payload : length bytes]
///
/// Records are written whole (no block fragmentation). A torn tail —
/// partial frame or CRC mismatch at the end of the log — is treated as a
/// clean end-of-log during recovery; committed records always precede it.
enum class RecordType : uint8_t {
  kData = 1,     // a committed batch (payload = batch encoding)
  kCheckpoint = 2,  // marker: state up to here is captured in the snapshot
  // Atomic page-image checkpoint: payload = pager meta + the full image
  // of every dirty page about to be written in place. Because the record
  // is CRC-framed it is either wholly durable or invisible, so a crash
  // in the middle of the in-place page writes that follow is repaired by
  // replaying the images (torn-page safety for the paged note store).
  kPagerSnapshot = 3,
};

constexpr uint64_t kMaxRecordPayload = 1ull << 30;  // sanity bound, 1 GiB

/// Encodes one CRC-framed record onto the end of `dst`. SharedLog writes
/// its segments with it; LogReader decodes them.
void AppendFrameTo(std::string* dst, RecordType type,
                   std::string_view payload);

}  // namespace dominodb::wal

#endif  // DOMINODB_WAL_LOG_FORMAT_H_
