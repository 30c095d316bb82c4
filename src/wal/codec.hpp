// Text codec for WAL redo records and checkpoint lines.
//
// A record is one line of space-separated tokens: a one-letter tag, then
// the tag's fields.  Catalog and fixity upserts carry full-row images:
//
//   O <server> <object_id> <gpfs_file_id> <size> <content_tag> <cartridge>
//     <tape_seq> <aggregate_id> <aggregate_offset> <path> <group>
//     <members> <copies>
//   F <row_id> <object_id> <cartridge> <tape_seq> <length> <checksum>
//     <copy_index> <status>
//
// Strings are percent-escaped so they stay single tokens ("%-" is the
// empty string); `members` is "-" or "id,id,..." and `copies` is "-" or
// "cart:seq,cart:seq,...".  The functions below encode and decode the
// field lists after the tag (and, for O, after the server index).
// Encoders append to a caller-owned buffer so the append path can reuse
// one allocation; decoders parse a string_view in place.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hsm/object.hpp"
#include "integrity/fixity.hpp"

namespace cpa::wal::codec {

/// Appends `v` in decimal (the same digits std::to_string produces).
void put_u64(std::string& out, std::uint64_t v);

/// Appends `s` percent-escaped: '%', ' ', '\n', '\r' and '\t' become
/// "%XX"; the empty string becomes "%-".
void escape(std::string_view s, std::string& out);
[[nodiscard]] std::string unescape(std::string_view s);

/// Object fields, from object_id through copies.
void encode_object(const hsm::ArchiveObject& o, std::string& out);
/// Parses what encode_object wrote; false (with `o` unspecified) on a
/// malformed field list.  Tokens past `copies` are ignored.
bool decode_object(std::string_view fields, hsm::ArchiveObject& o);

/// Fixity fields, from row_id through status.
void encode_fixity(const integrity::FixityRow& r, std::string& out);
bool decode_fixity(std::string_view fields, integrity::FixityRow& r);

/// Splits a record into space-separated tokens without copying.
class Tokens {
 public:
  explicit Tokens(std::string_view s) : s_(s) {}
  /// The next token; false once the record is exhausted.
  bool next(std::string_view& tok);
  /// The next token as a decimal u64; false if absent or not all digits.
  bool u64(std::uint64_t& v);
  /// Everything after the current position, one leading space dropped.
  [[nodiscard]] std::string_view rest() const;

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Whole-token decimal parse (no sign, no trailing bytes).
bool parse_u64(std::string_view tok, std::uint64_t& v);

}  // namespace cpa::wal::codec
