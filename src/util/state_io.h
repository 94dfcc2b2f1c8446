// Framed binary state serialization: the checkpoint/restore substrate
// every pipeline layer shares (DESIGN.md section 11).
//
// A state image is a header plus a sequence of framed sections:
//
//   header   "DIURNCKP" | endian sentinel u32 | format version u32 |
//            flags u32 (bit 0: varint integer packing)
//   section  tag u32 | payload length u64 | payload CRC32 u32 | payload
//
// The header fields are fixed-width native-endian; the sentinel detects
// a cross-endian image (we reject instead of byte-swapping — every
// supported target is little-endian, and a wrong-endian file must never
// be silently misread).  Each section's CRC covers its payload, so a
// flipped byte anywhere surfaces as StateErrorKind::kBadCrc before any
// value is trusted.  Readers consume a section completely or fail: a
// version that writes more fields than the reader understands is a
// format break and bumps kStateFormatVersion (see the compat policy in
// DESIGN.md).
//
// All failures throw StateError — never UB, never a partial overwrite
// of caller state that has already validated.  Callers that can
// recompute (the shard scheduler, the CLI resume path) catch it and
// fall back; callers that cannot (tests) let it propagate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace diurnal::util {

/// Current image format version.  Bump on any layout change; readers
/// reject images whose version differs (checkpoints are cheap to
/// regenerate, so there is no cross-version migration path).
inline constexpr std::uint32_t kStateFormatVersion = 2;

enum class StateErrorKind : std::uint8_t {
  kIo,          ///< file missing/unreadable/unwritable
  kBadMagic,    ///< not a state image
  kBadEndian,   ///< written on an incompatible-endian machine
  kBadVersion,  ///< format version mismatch
  kTruncated,   ///< image ends before the data it promises
  kBadCrc,      ///< section payload fails its checksum
  kBadSection,  ///< wrong tag, or payload not fully consumed
  kBadValue,    ///< decoded value violates an invariant
};

const char* to_string(StateErrorKind kind) noexcept;

/// The one failure type of the state layer.  kind() routes recovery:
/// kIo on a manifest usually means "no checkpoint yet"; everything else
/// means "discard and recompute".
class StateError : public std::runtime_error {
 public:
  StateError(StateErrorKind kind, std::string what)
      : std::runtime_error(std::move(what)), kind_(kind) {}
  StateErrorKind kind() const noexcept { return kind_; }

 private:
  StateErrorKind kind_;
};

/// Four-character section tag, e.g. state_tag("FLET").
constexpr std::uint32_t state_tag(const char (&s)[5]) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24);
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte span.
std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

/// Serializes values into an in-memory image.  Integer packing: with
/// varint enabled (the default) u32/u64 are LEB128 and i64 is
/// zigzag-LEB128; disabled, they are fixed-width.  f64 is always the
/// raw 8-byte bit pattern — checkpoints must round-trip bitwise, so
/// floating-point values are never re-encoded — except through
/// f64_span's integral fast path, which is exact by construction.
class StateWriter {
 public:
  explicit StateWriter(bool varint = true);

  /// Opens a framed section; every value lands in it.  Sections do not
  /// nest.
  void begin_section(std::uint32_t tag);
  /// Closes the open section, patching its length and CRC.
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  void str(std::string_view s);

  /// A double array with a transparent packing decision: when every
  /// value is an exactly representable non-negative integer below 2^52
  /// (active-address counts always are), the values travel as varints;
  /// otherwise as raw doubles.  Both round-trip bitwise.
  void f64_span(std::span<const double> v);

  /// The finished image.  No section may be open.
  const std::vector<std::uint8_t>& bytes() const;
  std::vector<std::uint8_t> take();
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  void raw32(std::uint32_t v);
  void raw64(std::uint64_t v);
  void var64(std::uint64_t v);

  std::vector<std::uint8_t> buf_;
  std::size_t payload_start_ = 0;  ///< open section's payload offset
  bool section_open_ = false;
  bool varint_ = true;
};

/// Deserializes an image produced by StateWriter.  The constructor
/// validates magic, endianness, and version; begin_section() validates
/// the tag and payload CRC before any value is read; end_section()
/// requires the payload to be fully consumed.  Every decode error is a
/// StateError — a corrupt image can never produce silent garbage.
class StateReader {
 public:
  /// Borrows `image` for the reader's lifetime.
  explicit StateReader(std::span<const std::uint8_t> image);

  std::uint32_t version() const noexcept { return version_; }

  void begin_section(std::uint32_t expected_tag);
  void end_section();
  /// True when the image has another section to read.
  bool has_section() const noexcept { return pos_ < image_.size(); }
  /// The tag of the next section, without opening it.
  std::uint32_t next_tag() const;
  /// Validates the next section's framing and payload checksum without
  /// decoding it, then steps past it — the forward-compatibility path
  /// for sections this consumer does not understand.
  void skip_section();

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  void f64_span(std::vector<double>& out);
  /// Reads a span serialized by f64_span into caller storage; the
  /// stored count must equal out.size().
  void f64_span_into(std::span<double> out);

 private:
  [[noreturn]] void fail(StateErrorKind kind, const char* what) const;
  void need(std::size_t n) const;
  std::uint32_t raw32();
  std::uint64_t raw64();
  std::uint64_t var64();

  std::span<const std::uint8_t> image_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  bool section_open_ = false;
  bool varint_ = true;
  std::uint32_t version_ = 0;
};

/// Writes an image to `path` atomically: the bytes land in a staging
/// file with a per-process unique suffix and are renamed over the
/// destination, so a reader (or a crash, or a concurrent writer of the
/// same path) sees either the old complete file or a new complete
/// file, never a torn one.  Throws StateError(kIo) on failure.
void write_state_file(const std::string& path,
                      std::span<const std::uint8_t> bytes);

/// Reads a whole file.  Throws StateError(kIo) when missing/unreadable.
std::vector<std::uint8_t> read_state_file(const std::string& path);

}  // namespace diurnal::util
