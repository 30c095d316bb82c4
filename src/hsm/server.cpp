#include "hsm/server.hpp"

#include <utility>

namespace cpa::hsm {

ArchiveServer::ArchiveServer(sim::Simulation& sim, sim::FlowNetwork& net,
                             std::string name, ServerConfig cfg)
    : sim_(sim),
      name_(std::move(name)),
      cfg_(cfg),
      objects_([](const ArchiveObject& o) { return o.object_id; }) {
  next_object_id_ = cfg_.object_id_base;
  data_pool_ = net.add_pool(name_ + ".data", cfg_.data_bandwidth_bps);
}

void ArchiveServer::metadata_batch(std::vector<std::function<void()>> ops,
                                   std::function<void()> done) {
  if (ops.empty()) {
    if (done) done();
    return;
  }
  Txn txn;
  txn.cost = cfg_.batch_cost(ops.size());
  txn.ops = std::move(ops);
  txn.done = std::move(done);
  queue_.push_back(std::move(txn));
  if (!busy_) pump();
}

void ArchiveServer::restart(sim::Tick outage) {
  ++epoch_;
  up_at_ = sim_.now() + outage;
  if (!busy_ && !queue_.empty()) pump();
}

void ArchiveServer::pump() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  if (sim_.now() < up_at_) {
    // Restart outage: hold the queue until the server is back.
    busy_ = true;
    sim_.at(up_at_, [this] { pump(); });
    return;
  }
  busy_ = true;
  Txn txn = std::move(queue_.front());
  queue_.pop_front();
  const std::uint64_t gen = power_gen_;
  sim_.after(txn.cost, [this, txn = std::move(txn), gen]() mutable {
    if (gen != power_gen_) {
      // A power failure landed while this round-trip was in service.  It
      // tears away whole: no op applies (no partial batch survives into
      // the wiped catalog) and no callback leaks to a dead job.  The pump
      // still runs so `busy_` cannot wedge the queue.
      pump();
      return;
    }
    ++txns_;
    batch_ops_ += txn.ops.size();
    for (auto& op : txn.ops) op();
    if (txn.done) txn.done();
    pump();
  });
}

void ArchiveServer::power_fail() {
  // Dropped, not failed: the callbacks belong to jobs the crash already
  // aborted.  busy_ stays untouched — a round-trip in service tears away
  // at its scheduled event and pumps whatever queue exists then.
  queue_.clear();
  ++epoch_;
  ++power_gen_;
  objects_.clear();
  export_.clear();
  next_object_id_ = cfg_.object_id_base;
}

namespace {

metadb::TapeObjectRow export_row(const ArchiveObject& o) {
  return metadb::TapeObjectRow{o.object_id,  o.gpfs_file_id, o.path,
                               o.size_bytes, o.cartridge_id, o.tape_seq};
}

}  // namespace

void ArchiveServer::record_object(ArchiveObject obj) {
  // Mirror into the indexed export before storing.  The export holds
  // exactly the objects with a path (aggregates have no single path/fid;
  // they are not separately recallable by path), so it is a function of
  // the catalog alone and recovery can rebuild it from the final rows.
  if (!obj.path.empty()) {
    export_.upsert(export_row(obj));
  } else {
    export_.erase_object(obj.object_id);
  }
  // Mutate first, log after: the WAL hook can snapshot the whole catalog
  // synchronously (auto-checkpoint), and that snapshot must already
  // contain this row or the checkpoint truncation loses it.
  const std::uint64_t id = obj.object_id;
  objects_.upsert(std::move(obj));
  if (hooks_.on_record) hooks_.on_record(*objects_.find(id));
}

void ArchiveServer::install_objects(
    const std::function<bool(ArchiveObject&)>& next) {
  objects_.assign_sorted(next);
  std::vector<const ArchiveObject*> exported;
  exported.reserve(objects_.size());
  objects_.for_each([&](const ArchiveObject& o) {
    if (!o.path.empty()) exported.push_back(&o);
  });
  std::size_t i = 0;
  export_.assign_sorted([&](metadb::TapeObjectRow& row) {
    if (i == exported.size()) return false;
    row = export_row(*exported[i++]);
    return true;
  });
}

const ArchiveObject* ArchiveServer::object(std::uint64_t id) const {
  return objects_.find(id);
}

bool ArchiveServer::delete_object(std::uint64_t id) {
  const ArchiveObject* obj = objects_.find(id);
  if (obj == nullptr) return false;
  export_.erase_object(id);
  const bool erased = objects_.erase(id);
  if (erased && hooks_.on_delete) hooks_.on_delete(id);
  return erased;
}

void ArchiveServer::for_each_object(
    const std::function<void(const ArchiveObject&)>& fn) const {
  objects_.for_each(fn);
}

}  // namespace cpa::hsm
