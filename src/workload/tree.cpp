#include "workload/tree.hpp"

#include <cstdio>

#include "simcore/splitmix64.hpp"

namespace cpa::workload {

std::uint64_t tree_file_tag(std::uint64_t tag_seed, std::uint64_t index) {
  return mix64(tag_seed ^ (index * kSplitMix64Gamma + 1));
}

std::string tree_file_path(const TreeSpec& spec, std::uint64_t index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "d%04llu/f%06llu",
                static_cast<unsigned long long>(index / spec.files_per_dir),
                static_cast<unsigned long long>(index));
  return pfs::join_path(spec.root, buf);
}

TreeReport build_tree(pfs::FileSystem& fs, const TreeSpec& spec) {
  TreeReport report;
  fs.mkdirs(spec.root);
  std::uint64_t current_dir = static_cast<std::uint64_t>(-1);
  for (std::uint64_t i = 0; i < spec.file_sizes.size(); ++i) {
    const std::uint64_t dir = i / spec.files_per_dir;
    if (dir != current_dir) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "d%04llu",
                    static_cast<unsigned long long>(dir));
      fs.mkdirs(pfs::join_path(spec.root, buf));
      current_dir = dir;
      ++report.dirs;
    }
    const std::string path = tree_file_path(spec, i);
    if (!fs.create(path).ok()) continue;
    if (fs.write_all(path, spec.file_sizes[i], tree_file_tag(spec.tag_seed, i)) !=
        pfs::Errc::Ok) {
      continue;
    }
    ++report.files;
    report.bytes += spec.file_sizes[i];
  }
  return report;
}

}  // namespace cpa::workload
