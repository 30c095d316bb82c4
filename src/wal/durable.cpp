#include "wal/durable.hpp"

#include <algorithm>
#include <deque>
#include <tuple>

#include "wal/codec.hpp"

namespace cpa::wal {
namespace {

// Calls fn(line) for every non-empty '\n'-terminated (or final) line.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    if (!line.empty()) fn(line);
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
}

// Pass-1 index entry: a key, the record's sequence number (checkpoint
// lines first, then log frames) and where its fields sit — never a decoded
// row.  24 bytes; a recovery image holds fewer than 2^32 records.
struct Image {
  std::uint64_t key = 0;     // object id (O/D) or fixity row id (F)
  const char* data = nullptr;  // fields from the key on; nullptr for a D
  std::uint32_t size = 0;
  std::uint32_t seq = 0;

  [[nodiscard]] std::string_view fields() const { return {data, size}; }
  friend bool operator<(const Image& a, const Image& b) {
    return std::tie(a.key, a.seq) < std::tie(b.key, b.seq);
  }
};

struct Erase {  // an E record: every row of the object, as of `seq`
  std::uint64_t object_id = 0;
  std::uint32_t seq = 0;

  friend bool operator<(const Erase& a, const Erase& b) {
    return std::tie(a.object_id, a.seq) < std::tie(b.object_id, b.seq);
  }
};

}  // namespace

// Deques, not vectors: they grow without reallocating, so the index never
// holds a doubled copy of itself, and pass 2 pops them as it installs, so
// the tables reuse the memory the index frees.
struct Durable::Fold {
  std::uint32_t seq = 0;  // records scanned so far (checkpoint lines first)
  std::vector<std::deque<Image>> objects;  // per server
  std::deque<Image> fixity;
  std::vector<Erase> erases;
  /// Per server: the allocator floor, max(N value, O object id + 1) over
  /// every O/N record, superseded or deleted ones included.
  std::vector<std::uint64_t> next_object_id;
  /// Max F row id + 1 over every F record, erased rows included.
  std::uint64_t next_row_id = 0;
};

Durable::Durable(sim::Simulation& sim, WalConfig cfg, obs::Observer& obs)
    : sim_(sim), obs_(obs), writer_(sim, cfg, obs) {
  writer_.set_checkpoint_source([this] { return serialize_state(); });
}

void Durable::attach_server(unsigned idx, hsm::ArchiveServer& srv) {
  if (servers_.size() <= idx) servers_.resize(idx + 1, nullptr);
  servers_[idx] = &srv;
  hsm::ArchiveServer::MutationHooks h;
  h.on_record = [this, idx](const hsm::ArchiveObject& o) {
    if (replaying_) return;
    rec_.assign("O ");
    codec::put_u64(rec_, idx);
    rec_ += ' ';
    codec::encode_object(o, rec_);
    writer_.append_record(rec_);
  };
  h.on_delete = [this, idx](std::uint64_t id) {
    if (replaying_) return;
    rec_.assign("D ");
    codec::put_u64(rec_, idx);
    rec_ += ' ';
    codec::put_u64(rec_, id);
    writer_.append_record(rec_);
  };
  srv.set_mutation_hooks(std::move(h));
}

void Durable::attach_fixity(integrity::FixityDb& db) {
  fixity_ = &db;
  integrity::FixityDb::MutationHooks h;
  h.on_upsert = [this](const integrity::FixityRow& r) {
    if (replaying_) return;
    rec_.assign("F ");
    codec::encode_fixity(r, rec_);
    writer_.append_record(rec_);
  };
  h.on_erase_object = [this](std::uint64_t object_id) {
    if (replaying_) return;
    rec_.assign("E ");
    codec::put_u64(rec_, object_id);
    writer_.append_record(rec_);
  };
  db.set_mutation_hooks(std::move(h));
}

void Durable::attach_journal(pftool::RestartJournal& journal) {
  journal_ = &journal;
  journal.set_mutation_hook([this](pftool::RestartJournal::Op op,
                                   const std::string& dst, std::uint64_t a,
                                   std::uint64_t b) {
    if (replaying_) return;
    rec_.assign("J ");
    rec_ += static_cast<char>(op);
    rec_ += ' ';
    codec::escape(dst, rec_);
    rec_ += ' ';
    codec::put_u64(rec_, a);
    rec_ += ' ';
    codec::put_u64(rec_, b);
    writer_.append_record(rec_);
  });
}

std::string Durable::serialize_state() const {
  std::string out = "CPACKPT 1\n";
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i] == nullptr) continue;
    servers_[i]->for_each_object([&](const hsm::ArchiveObject& o) {
      out += "O ";
      codec::put_u64(out, i);
      out += ' ';
      codec::encode_object(o, out);
      out += '\n';
    });
    out += "N ";
    codec::put_u64(out, i);
    out += ' ';
    codec::put_u64(out, servers_[i]->next_object_id());
    out += '\n';
  }
  if (fixity_ != nullptr) {
    fixity_->for_each([&](const integrity::FixityRow& r) {
      out += "F ";
      codec::encode_fixity(r, out);
      out += '\n';
    });
  }
  if (journal_ != nullptr) {
    for_each_line(journal_->serialize(), [&](std::string_view line) {
      out += "K ";
      out += line;
      out += '\n';
    });
  }
  return out;
}

void Durable::scan(std::string_view record, Fold& fold) {
  const std::uint32_t seq = fold.seq++;
  codec::Tokens in(record);
  std::string_view tag;
  if (!in.next(tag)) return;
  if (tag == "O" || tag == "D" || tag == "N") {
    std::uint64_t idx = 0;
    std::uint64_t id = 0;
    if (!in.u64(idx)) return;
    const std::string_view fields = in.rest();
    if (!in.u64(id)) return;
    if (idx >= servers_.size() || servers_[idx] == nullptr) return;
    std::uint64_t& next = fold.next_object_id[idx];
    if (tag == "N") {
      next = std::max(next, id);
      return;
    }
    Image img{id, nullptr, 0, seq};
    if (tag == "O") {
      next = std::max(next, id + 1);
      img.data = fields.data();
      img.size = static_cast<std::uint32_t>(fields.size());
    }
    fold.objects[idx].push_back(img);
  } else if (tag == "F") {
    const std::string_view fields = in.rest();
    std::uint64_t row_id = 0;
    if (fixity_ == nullptr || !in.u64(row_id)) return;
    fold.next_row_id = std::max(fold.next_row_id, row_id + 1);
    fold.fixity.push_back(
        {row_id, fields.data(), static_cast<std::uint32_t>(fields.size()), seq});
  } else if (tag == "E") {
    std::uint64_t object_id = 0;
    if (fixity_ == nullptr || !in.u64(object_id)) return;
    fold.erases.push_back({object_id, seq});
  } else if (tag == "J" || tag == "K") {
    if (journal_ != nullptr) apply_journal(tag, in.rest());
  }
}

void Durable::apply_journal(std::string_view tag, std::string_view record) {
  if (tag == "J") {
    // "<op> <escaped dst> <a> <b>"
    codec::Tokens in(record);
    std::string_view op, dst;
    std::uint64_t a = 0, b = 0;
    if (!in.next(op) || op.size() != 1 || !in.next(dst) || !in.u64(a) ||
        !in.u64(b)) {
      return;
    }
    const std::string d = codec::unescape(dst);
    switch (static_cast<pftool::RestartJournal::Op>(op.front())) {
      case pftool::RestartJournal::Op::Begin: journal_->begin(d, a, b); break;
      case pftool::RestartJournal::Op::Good: journal_->mark_good(d, a); break;
      case pftool::RestartJournal::Op::Bad: journal_->mark_bad(d, a); break;
      case pftool::RestartJournal::Op::Forget: journal_->forget(d); break;
    }
    return;
  }
  // Checkpointed journal entry: "dst|size|count|bitmap" (dst unescaped).
  const std::size_t p1 = record.find('|');
  if (p1 == std::string_view::npos) return;
  const std::size_t p2 = record.find('|', p1 + 1);
  if (p2 == std::string_view::npos) return;
  const std::size_t p3 = record.find('|', p2 + 1);
  if (p3 == std::string_view::npos) return;
  std::uint64_t size = 0, count = 0;
  if (!codec::parse_u64(record.substr(p1 + 1, p2 - p1 - 1), size) ||
      !codec::parse_u64(record.substr(p2 + 1, p3 - p2 - 1), count)) {
    return;
  }
  const std::string dst(record.substr(0, p1));
  journal_->begin(dst, size, count);
  const std::string_view bitmap = record.substr(p3 + 1);
  for (std::size_t i = 0; i < bitmap.size() && i < count; ++i) {
    if (bitmap[i] == '1') journal_->mark_good(dst, i);
  }
}

void Durable::build(Fold& fold) {
  // Catalogs: the last record per object id wins; a D there means the
  // object is gone.
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (servers_[s] == nullptr) continue;
    std::deque<Image>& images = fold.objects[s];
    std::sort(images.begin(), images.end());
    servers_[s]->install_objects([&](hsm::ArchiveObject& o) {
      while (!images.empty()) {
        const Image img = images.front();
        images.pop_front();
        const bool superseded = !images.empty() && images.front().key == img.key;
        if (superseded || img.data == nullptr) continue;
        if (codec::decode_object(img.fields(), o)) return true;
      }
      return false;
    });
    if (fold.next_object_id[s] > servers_[s]->next_object_id()) {
      servers_[s]->set_next_object_id(fold.next_object_id[s]);
    }
  }

  if (fixity_ == nullptr) return;
  // Fixity: the last image per row id wins, unless an E for its object
  // came later.  A row never changes object, so the image's object id is
  // the one every E covering this row names.
  std::vector<Erase>& erases = fold.erases;
  std::sort(erases.begin(), erases.end());
  const auto erased_after = [&erases](std::uint64_t object_id,
                                      std::uint32_t seq) {
    auto it = std::upper_bound(
        erases.begin(), erases.end(), object_id,
        [](std::uint64_t id, const Erase& e) { return id < e.object_id; });
    return it != erases.begin() && (it - 1)->object_id == object_id &&
           (it - 1)->seq > seq;
  };
  std::deque<Image>& rows = fold.fixity;
  std::sort(rows.begin(), rows.end());
  fixity_->install(
      [&](integrity::FixityRow& r) {
        while (!rows.empty()) {
          const Image img = rows.front();
          rows.pop_front();
          const bool superseded = !rows.empty() && rows.front().key == img.key;
          if (superseded || !codec::decode_fixity(img.fields(), r)) continue;
          if (!erased_after(r.object_id, img.seq)) return true;
        }
        return false;
      },
      fold.next_row_id);
}

Durable::RecoveryStats Durable::recover() {
  RecoveryStats stats;
  replaying_ = true;
  Fold fold;
  fold.objects.resize(servers_.size());
  fold.next_object_id.assign(servers_.size(), 0);
  // Pass 1: checkpoint lines (after the "CPACKPT 1" header), then the
  // intact log frames, in that order.
  const std::string& ckpt = writer_.installed_checkpoint();
  stats.checkpoint_bytes = ckpt.size();
  const std::size_t header_end = ckpt.find('\n');
  if (header_end != std::string::npos) {
    for_each_line(std::string_view(ckpt).substr(header_end + 1),
                  [&](std::string_view line) { scan(line, fold); });
  }
  const std::string& log = writer_.log_bytes();
  stats.log_bytes = log.size();
  std::uint64_t valid = 0;
  stats.replayed_records = WalReader::replay(
      log, [&](std::string_view r) { scan(r, fold); }, &valid);
  // Pass 2 reads the views pass 1 took, so it runs before the trim.
  build(fold);
  // Cut the torn half-frame: appends from here on must land where replay
  // can reach them, not behind CRC garbage.
  writer_.trim_torn_tail(valid);
  replaying_ = false;

  const WalConfig& cfg = writer_.config();
  stats.duration =
      cfg.flush_latency +
      sim::secs(static_cast<double>(stats.checkpoint_bytes + stats.log_bytes) /
                cfg.log_bytes_per_sec) +
      cfg.replay_record_cost * stats.replayed_records;

  obs::MetricsRegistry& m = obs_.metrics();
  m.counter("wal.replay_records").add(stats.replayed_records);
  m.counter("recovery.count").inc();
  m.gauge("recovery.duration").set(sim::to_seconds(stats.duration));
  return stats;
}

}  // namespace cpa::wal
