#include "pfs/filesystem.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

namespace cpa::pfs {

namespace {

/// Walks the components of an absolute path without allocating.
class Components {
 public:
  explicit Components(std::string_view path) : path_(path) {}
  /// Sets `comp` to the next component; false past the last one.
  bool next(std::string_view* comp) {
    if (pos_ >= path_.size()) return false;
    std::size_t j = path_.find('/', pos_);
    if (j == std::string_view::npos) j = path_.size();
    *comp = path_.substr(pos_, j - pos_);
    pos_ = j + 1;
    return true;
  }

 private:
  std::string_view path_;
  std::size_t pos_ = 1;  // just past the leading '/'
};

bool bad_component(std::string_view c) {
  return c.empty() || c == "." || c == "..";
}

/// Absolute, with no empty ("//"), "." or ".." component.
bool well_formed(std::string_view path) {
  if (path.empty() || path[0] != '/') return false;
  Components it(path);
  std::string_view comp;
  while (it.next(&comp)) {
    if (bad_component(comp)) return false;
  }
  return true;
}

}  // namespace

bool split_path(const std::string& path, std::vector<std::string>* parts) {
  parts->clear();
  if (!well_formed(path)) return false;
  Components it(path);
  std::string_view comp;
  while (it.next(&comp)) parts->emplace_back(comp);
  return true;
}

std::string join_path(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir == "/") return "/" + name;
  return dir + "/" + name;
}

std::string parent_path(const std::string& path) {
  const std::size_t pos = path.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

std::string base_name(const std::string& path) {
  const std::size_t pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

FileSystem::FileSystem(sim::Simulation& sim, FsConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  assert(!cfg_.pools.empty() && "a file system needs at least one pool");
  for (const auto& pc : cfg_.pools) {
    pool_nsd_base_.push_back(total_nsds_);
    total_nsds_ += std::max(1u, pc.nsd_count);
    pools_.push_back(PoolInfo{pc, 0});
  }
  // Root directory.
  root_ = &new_inode(FileKind::Directory, 0);
}

FileSystem::Inode& FileSystem::new_inode(FileKind kind, unsigned pool_idx) {
  const InodeId id = next_inode_++;
  if (id / kBlockInodes == blocks_.size()) {
    blocks_.push_back(std::make_unique<Inode[]>(kBlockInodes));
  }
  Inode& n = blocks_[id / kBlockInodes][id % kBlockInodes];
  n.id = id;
  n.gen = next_gen_++;
  n.kind = kind;
  n.atime = n.mtime = n.ctime = sim_.now();
  n.pool_idx = pool_idx;
  ++live_inodes_;
  return n;
}

void FileSystem::free_inode(Inode& n) {
  n = Inode{};  // id 0 marks the slot dead; releases name and children
  --live_inodes_;
}

const FileSystem::Inode* FileSystem::find_inode(InodeId id) const {
  if (id >= next_inode_) return nullptr;
  const Inode& n = blocks_[id / kBlockInodes][id % kBlockInodes];
  return n.id == kInvalidInode ? nullptr : &n;
}

const FileSystem::Inode* FileSystem::resolve(std::string_view path) const {
  // Any failure — malformed, missing, or through a file — is nullptr, so
  // one pass both validates and walks.
  if (path.empty() || path[0] != '/') return nullptr;
  const Inode* cur = root_;
  Components it(path);
  std::string_view comp;
  while (it.next(&comp)) {
    if (bad_component(comp) || cur->kind != FileKind::Directory) return nullptr;
    const auto c = cur->children.find(comp);
    if (c == cur->children.end()) return nullptr;
    cur = c->second;
  }
  return cur;
}

FileSystem::Inode* FileSystem::resolve(std::string_view path) {
  return const_cast<Inode*>(std::as_const(*this).resolve(path));
}

FileSystem::Inode* FileSystem::resolve_parent(std::string_view path,
                                              std::string_view* leaf, Errc* err) {
  // Validate first: a malformed path is InvalidArgument even where a
  // walk would stop earlier at a missing directory.
  Components it(path);
  std::string_view comp;
  if (!well_formed(path) || !it.next(&comp)) {
    *err = Errc::InvalidArgument;
    return nullptr;
  }
  Inode* cur = root_;
  for (std::string_view next; it.next(&next); comp = next) {
    if (cur->kind != FileKind::Directory) {
      *err = Errc::NotADirectory;
      return nullptr;
    }
    const auto c = cur->children.find(comp);
    if (c == cur->children.end()) {
      *err = Errc::NotFound;
      return nullptr;
    }
    cur = c->second;
  }
  if (cur->kind != FileKind::Directory) {
    *err = Errc::NotADirectory;
    return nullptr;
  }
  *leaf = comp;
  *err = Errc::Ok;
  return cur;
}

FileSystem::Inode& FileSystem::add_child(Inode& parent, std::string_view leaf,
                                         FileKind kind, unsigned pool_idx) {
  Inode& child = new_inode(kind, pool_idx);
  child.parent = &parent;
  child.name = leaf;
  parent.children.emplace(child.name, &child);
  parent.mtime = sim_.now();
  return child;
}

void FileSystem::attrs_of(const Inode& n, InodeAttrs* out) const {
  out->fid = n.fid();
  out->kind = n.kind;
  out->size = n.size;
  out->atime = n.atime;
  out->mtime = n.mtime;
  out->ctime = n.ctime;
  out->pool = pools_[n.pool_idx].config.name;
  out->dmapi = n.dmapi;
  out->content_tag = n.content_tag;
}

std::string FileSystem::rebuild_path(const Inode& n) {
  if (n.parent == nullptr) return "/";
  std::vector<const std::string*> comps;
  for (const Inode* cur = &n; cur->parent != nullptr; cur = cur->parent) {
    comps.push_back(&cur->name);
  }
  std::string out;
  for (auto it = comps.rbegin(); it != comps.rend(); ++it) {
    out += '/';
    out += **it;
  }
  return out;
}

int FileSystem::pool_index(const std::string& name) const {
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (pools_[i].config.name == name) return static_cast<int>(i);
  }
  return -1;
}

Errc FileSystem::charge_pool(unsigned pool_idx, std::uint64_t bytes) {
  PoolInfo& p = pools_[pool_idx];
  if (p.config.capacity_bytes != 0 && p.used_bytes + bytes > p.config.capacity_bytes) {
    return Errc::NoSpace;
  }
  p.used_bytes += bytes;
  return Errc::Ok;
}

void FileSystem::credit_pool(unsigned pool_idx, std::uint64_t bytes) {
  PoolInfo& p = pools_[pool_idx];
  p.used_bytes = p.used_bytes > bytes ? p.used_bytes - bytes : 0;
}

void FileSystem::destroy_data(Inode& n, const std::string& path) {
  const bool managed = n.dmapi != DmapiState::Resident;
  // Migrated stubs hold no disk bytes; others do.
  if (n.dmapi != DmapiState::Migrated) credit_pool(n.pool_idx, n.size);
  if (managed && dmapi_ != nullptr) {
    dmapi_->on_managed_data_destroyed(path, n.fid());
  }
  n.dmapi = DmapiState::Resident;
  n.size = 0;
  n.content_tag = 0;
}

Result<InodeId> FileSystem::mkdir(const std::string& path) {
  std::string_view leaf;
  Errc err = Errc::Ok;
  Inode* parent = resolve_parent(path, &leaf, &err);
  if (parent == nullptr) return err;
  if (parent->children.count(leaf) != 0) return Errc::Exists;
  return add_child(*parent, leaf, FileKind::Directory, 0).id;
}

Errc FileSystem::mkdirs(const std::string& path) {
  // One walk from the root, creating each missing component in order.
  if (!well_formed(path)) return Errc::InvalidArgument;
  Inode* cur = root_;
  Components it(path);
  std::string_view comp;
  while (it.next(&comp)) {
    const auto c = cur->children.find(comp);
    if (c == cur->children.end()) {
      cur = &add_child(*cur, comp, FileKind::Directory, 0);
    } else if (c->second->kind != FileKind::Directory) {
      return Errc::NotADirectory;
    } else {
      cur = c->second;
    }
  }
  return Errc::Ok;
}

Result<FileId> FileSystem::create(const std::string& path,
                                  const std::string& pool_hint) {
  std::string_view leaf;
  Errc err = Errc::Ok;
  Inode* parent = resolve_parent(path, &leaf, &err);
  if (parent == nullptr) return err;
  if (parent->children.count(leaf) != 0) return Errc::Exists;
  int pidx = 0;
  if (!pool_hint.empty()) {
    pidx = pool_index(pool_hint);
    if (pidx < 0) return Errc::InvalidArgument;
  }
  return add_child(*parent, leaf, FileKind::Regular, static_cast<unsigned>(pidx))
      .fid();
}

Result<InodeAttrs> FileSystem::stat(const std::string& path) const {
  const Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  InodeAttrs a;
  attrs_of(*n, &a);
  return a;
}

Result<std::string> FileSystem::path_of(FileId fid) const {
  const Inode* n = find_inode(fid.inode);
  if (n == nullptr) return Errc::NotFound;
  if (n->gen != fid.gen) return Errc::Stale;
  return rebuild_path(*n);
}

Result<std::vector<DirEntry>> FileSystem::readdir(const std::string& path) const {
  const Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Directory) return Errc::NotADirectory;
  std::vector<DirEntry> out;
  out.reserve(n->children.size());
  for (const auto& [name, c] : n->children) {
    out.push_back(DirEntry{name, c->id, c->kind});
  }
  return out;
}

Errc FileSystem::unlink(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind == FileKind::Directory) return Errc::IsADirectory;
  destroy_data(*n, path);
  Inode& parent = *n->parent;
  parent.children.erase(n->name);
  parent.mtime = sim_.now();
  free_inode(*n);
  return Errc::Ok;
}

Errc FileSystem::rmdir(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Directory) return Errc::NotADirectory;
  if (n == root_) return Errc::InvalidArgument;
  if (!n->children.empty()) return Errc::NotEmpty;
  Inode& parent = *n->parent;
  parent.children.erase(n->name);
  parent.mtime = sim_.now();
  free_inode(*n);
  return Errc::Ok;
}

Errc FileSystem::rename(const std::string& from, const std::string& to) {
  Inode* src = resolve(from);
  if (src == nullptr) return Errc::NotFound;
  if (src == root_) return Errc::InvalidArgument;
  std::string_view leaf;
  Errc err = Errc::Ok;
  Inode* new_parent = resolve_parent(to, &leaf, &err);
  if (new_parent == nullptr) return err;
  if (new_parent->children.count(leaf) != 0) return Errc::Exists;
  // Reject moving a directory into its own subtree.
  for (const Inode* a = new_parent; a != root_; a = a->parent) {
    if (a == src) return Errc::InvalidArgument;
  }
  Inode& old_parent = *src->parent;
  old_parent.children.erase(src->name);
  old_parent.mtime = sim_.now();
  src->parent = new_parent;
  src->name = leaf;
  new_parent->children.emplace(src->name, src);
  new_parent->mtime = sim_.now();
  return Errc::Ok;
}

bool FileSystem::exists(const std::string& path) const {
  return resolve(path) != nullptr;
}

Errc FileSystem::write_all(const std::string& path, std::uint64_t size,
                           std::uint64_t content_tag) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Regular) return Errc::IsADirectory;
  // Overwrite destroys any managed (tape) copy first — this is exactly the
  // truncate-hole the synchronous deleter cannot see (Sec 6.3).
  destroy_data(*n, path);
  if (const Errc e = charge_pool(n->pool_idx, size); e != Errc::Ok) return e;
  n->size = size;
  n->content_tag = content_tag;
  n->mtime = n->atime = sim_.now();
  return Errc::Ok;
}

Errc FileSystem::truncate(const std::string& path, std::uint64_t new_size) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Regular) return Errc::IsADirectory;
  if (new_size != 0 && new_size == n->size) return Errc::Ok;
  const std::uint64_t tag = n->content_tag;
  destroy_data(*n, path);
  if (const Errc e = charge_pool(n->pool_idx, new_size); e != Errc::Ok) return e;
  n->size = new_size;
  // Truncation changes content; derive a new tag so comparisons fail.
  n->content_tag = new_size == 0 ? 0 : tag ^ (0x517CC1B727220A95ULL + new_size);
  n->mtime = sim_.now();
  return Errc::Ok;
}

Result<std::uint64_t> FileSystem::read_tag(const std::string& path) const {
  const Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Regular) return Errc::IsADirectory;
  if (n->dmapi == DmapiState::Migrated) {
    if (dmapi_ != nullptr) {
      dmapi_->on_read_offline(path, n->fid());
    }
    return Errc::Offline;
  }
  const_cast<Inode*>(n)->atime = sim_.now();
  return n->content_tag;
}

Errc FileSystem::premigrate(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Regular) return Errc::IsADirectory;
  if (n->dmapi != DmapiState::Resident) return Errc::InvalidArgument;
  n->dmapi = DmapiState::Premigrated;
  return Errc::Ok;
}

Errc FileSystem::punch(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->dmapi != DmapiState::Premigrated) return Errc::InvalidArgument;
  credit_pool(n->pool_idx, n->size);  // disk blocks released; stub remains
  n->dmapi = DmapiState::Migrated;
  return Errc::Ok;
}

Errc FileSystem::mark_recalled(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->dmapi != DmapiState::Migrated) return Errc::InvalidArgument;
  if (const Errc e = charge_pool(n->pool_idx, n->size); e != Errc::Ok) return e;
  n->dmapi = DmapiState::Premigrated;
  n->atime = sim_.now();
  return Errc::Ok;
}

Errc FileSystem::make_resident(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->dmapi != DmapiState::Premigrated) return Errc::InvalidArgument;
  n->dmapi = DmapiState::Resident;
  return Errc::Ok;
}

Result<PoolInfo> FileSystem::pool(const std::string& name) const {
  const int i = pool_index(name);
  if (i < 0) return Errc::NotFound;
  return pools_[static_cast<std::size_t>(i)];
}

std::vector<PoolInfo> FileSystem::pools() const { return pools_; }

Errc FileSystem::move_to_pool(const std::string& path, const std::string& pool) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Regular) return Errc::IsADirectory;
  const int pidx = pool_index(pool);
  if (pidx < 0) return Errc::InvalidArgument;
  const auto new_idx = static_cast<unsigned>(pidx);
  if (new_idx == n->pool_idx) return Errc::Ok;
  const bool holds_disk = n->dmapi != DmapiState::Migrated;
  if (holds_disk) {
    if (const Errc e = charge_pool(new_idx, n->size); e != Errc::Ok) return e;
    credit_pool(n->pool_idx, n->size);
  }
  n->pool_idx = new_idx;
  return Errc::Ok;
}

std::vector<unsigned> FileSystem::stripe_nsds(const std::string& path,
                                              std::uint64_t offset,
                                              std::uint64_t len) const {
  const Inode* n = resolve(path);
  std::vector<unsigned> out;
  if (n == nullptr || n->kind != FileKind::Regular || len == 0) return out;
  const PoolConfig& pc = pools_[n->pool_idx].config;
  const unsigned nsds = std::max(1u, pc.nsd_count);
  const unsigned base = pool_nsd_base_[n->pool_idx];
  const std::uint64_t bs = cfg_.block_size;
  const std::uint64_t first_block = offset / bs;
  const std::uint64_t last_block = (offset + len - 1) / bs;
  const std::uint64_t nblocks = last_block - first_block + 1;
  // Round-robin striping with a per-inode start offset (GPFS randomizes
  // the first disk per file to even out load).
  const std::uint64_t start = n->id % nsds;
  if (nblocks >= nsds) {
    for (unsigned i = 0; i < nsds; ++i) out.push_back(base + i);
  } else {
    for (std::uint64_t b = first_block; b <= last_block; ++b) {
      const unsigned s = static_cast<unsigned>((start + b) % nsds);
      if (std::find(out.begin(), out.end(), base + s) == out.end()) {
        out.push_back(base + s);
      }
    }
  }
  return out;
}

unsigned FileSystem::pool_nsd_base(const std::string& pool) const {
  const int i = pool_index(pool);
  return i < 0 ? 0 : pool_nsd_base_[static_cast<std::size_t>(i)];
}

/// Per-scan state: the visited inode's attributes, filled into one reused
/// record, and the path cache.  Each directory's path is built once, from
/// its parent's cached path; a file's path is its directory's plus one
/// append into a reused buffer.
struct FileSystem::Scan {
  InodeAttrs attrs;
  std::unordered_map<const Inode*, std::string> dirs;  // node-stable refs
  std::string file;

  const std::string& dir(const Inode& d) {
    const auto it = dirs.find(&d);
    if (it != dirs.end()) return it->second;
    std::string path;
    if (d.parent != nullptr) {
      path = dir(*d.parent);
      if (path.size() > 1) path += '/';  // only the root's path is "/"
      path += d.name;
    } else {
      path = "/";
    }
    return dirs.emplace(&d, std::move(path)).first->second;
  }

  const std::string& path_of(const Inode& n) {
    if (n.kind == FileKind::Directory) return dir(n);
    const std::string& d = dir(*n.parent);
    file.assign(d);
    if (file.size() > 1) file += '/';
    file += n.name;
    return file;
  }
};

const InodeAttrs& FileSystem::InodeView::attrs() const { return scan_->attrs; }

const std::string& FileSystem::InodeView::path() const {
  if (path_ == nullptr) path_ = &scan_->path_of(*node_);
  return *path_;
}

void FileSystem::for_each_inode(
    const std::function<void(const InodeView&)>& fn) const {
  Scan scan;
  for (InodeId id = 1; id < next_inode_; ++id) {
    const Inode& n = blocks_[id / kBlockInodes][id % kBlockInodes];
    if (n.id == kInvalidInode) continue;  // freed
    attrs_of(n, &scan.attrs);
    fn(InodeView(n, scan));
  }
}

sim::Tick FileSystem::scan_duration(std::uint64_t inodes, unsigned streams) const {
  if (inodes == 0) return 0;
  const double per_stream =
      static_cast<double>(inodes) / std::max(1u, streams);
  return sim::secs(per_stream / cfg_.inode_scan_rate);
}

}  // namespace cpa::pfs
