#include "wal/codec.hpp"

#include <algorithm>
#include <charconv>

namespace cpa::wal::codec {
namespace {

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

// Calls fn(item) for each comma-separated item of a list token ("-" is
// the empty list); false as soon as fn rejects one.
template <typename Fn>
bool for_each_item(std::string_view list, Fn&& fn) {
  if (list == "-") return true;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = list.find(',', start);
    const std::string_view item = list.substr(start, comma - start);
    if (!fn(item)) return false;
    if (comma == std::string_view::npos) return true;
    start = comma + 1;
  }
}

}  // namespace

void put_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

bool parse_u64(std::string_view tok, std::uint64_t& v) {
  if (tok.empty()) return false;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return res.ec == std::errc{} && res.ptr == tok.data() + tok.size();
}

void escape(std::string_view s, std::string& out) {
  if (s.empty()) {
    out += "%-";  // empty-string sentinel (unescapes to "")
    return;
  }
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (const char c : s) {
    if (c == '%' || c == ' ' || c == '\n' || c == '\r' || c == '\t') {
      const auto b = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[b >> 4];
      out += kHex[b & 0xF];
    } else {
      out += c;
    }
  }
}

std::string unescape(std::string_view s) {
  if (s == "%-") return {};
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_value(s[i + 1]);
      const int lo = hex_value(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

bool Tokens::next(std::string_view& tok) {
  while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
  if (pos_ >= s_.size()) return false;
  const std::size_t end = std::min(s_.find(' ', pos_), s_.size());
  tok = s_.substr(pos_, end - pos_);
  pos_ = end;
  return true;
}

bool Tokens::u64(std::uint64_t& v) {
  std::string_view tok;
  return next(tok) && parse_u64(tok, v);
}

std::string_view Tokens::rest() const {
  std::size_t p = pos_;
  if (p < s_.size() && s_[p] == ' ') ++p;
  return s_.substr(std::min(p, s_.size()));
}

void encode_object(const hsm::ArchiveObject& o, std::string& out) {
  for (const std::uint64_t v :
       {o.object_id, o.gpfs_file_id, o.size_bytes, o.content_tag,
        o.cartridge_id, o.tape_seq, o.aggregate_id, o.aggregate_offset}) {
    put_u64(out, v);
    out += ' ';
  }
  escape(o.path, out);
  out += ' ';
  escape(o.colocation_group, out);
  out += ' ';
  if (o.members.empty()) out += '-';
  for (std::size_t i = 0; i < o.members.size(); ++i) {
    if (i > 0) out += ',';
    put_u64(out, o.members[i]);
  }
  out += ' ';
  if (o.copies.empty()) out += '-';
  for (std::size_t i = 0; i < o.copies.size(); ++i) {
    if (i > 0) out += ',';
    put_u64(out, o.copies[i].cartridge_id);
    out += ':';
    put_u64(out, o.copies[i].tape_seq);
  }
}

bool decode_object(std::string_view fields, hsm::ArchiveObject& o) {
  Tokens in(fields);
  std::string_view path, group, members, copies;
  if (!(in.u64(o.object_id) && in.u64(o.gpfs_file_id) &&
        in.u64(o.size_bytes) && in.u64(o.content_tag) &&
        in.u64(o.cartridge_id) && in.u64(o.tape_seq) &&
        in.u64(o.aggregate_id) && in.u64(o.aggregate_offset) &&
        in.next(path) && in.next(group) && in.next(members) &&
        in.next(copies))) {
    return false;
  }
  o.path = unescape(path);
  o.colocation_group = unescape(group);
  o.members.clear();
  o.copies.clear();
  return for_each_item(members,
                       [&](std::string_view item) {
                         std::uint64_t id = 0;
                         if (!parse_u64(item, id)) return false;
                         o.members.push_back(id);
                         return true;
                       }) &&
         for_each_item(copies, [&](std::string_view item) {
           const std::size_t colon = item.find(':');
           if (colon == std::string_view::npos) return false;
           hsm::ArchiveObject::Replica r;
           if (!parse_u64(item.substr(0, colon), r.cartridge_id) ||
               !parse_u64(item.substr(colon + 1), r.tape_seq)) {
             return false;
           }
           o.copies.push_back(r);
           return true;
         });
}

void encode_fixity(const integrity::FixityRow& r, std::string& out) {
  for (const std::uint64_t v : {r.row_id, r.object_id, r.cartridge_id,
                                r.tape_seq, r.length, r.checksum}) {
    put_u64(out, v);
    out += ' ';
  }
  put_u64(out, r.copy_index);
  out += ' ';
  put_u64(out, static_cast<unsigned>(r.status));
}

bool decode_fixity(std::string_view fields, integrity::FixityRow& r) {
  Tokens in(fields);
  std::uint64_t copy_index = 0, status = 0;
  if (!(in.u64(r.row_id) && in.u64(r.object_id) && in.u64(r.cartridge_id) &&
        in.u64(r.tape_seq) && in.u64(r.length) && in.u64(r.checksum) &&
        in.u64(copy_index) && in.u64(status))) {
    return false;
  }
  r.copy_index = static_cast<unsigned>(copy_index);
  r.status = static_cast<integrity::FixityStatus>(status);
  return true;
}

}  // namespace cpa::wal::codec
