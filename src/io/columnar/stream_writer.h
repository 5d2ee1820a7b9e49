// Merge shard files into one VBT file: load (a VBT table adopts its mapped
// column blocks), study::merge_result_tables, write — the file-to-file
// form of the one merge path that `varbench merge`, the campaign
// coordinator and the report loader take.
#pragma once

#include <string>
#include <vector>

namespace varbench::io::columnar {

/// Merge the shard artifacts at `shard_paths` (VBT or JSON, by content)
/// into `out_path` as VBT bytes — exactly encode_vbt of
/// study::merge_result_tables over the loaded shards. Throws io::JsonError
/// on any unreadable, corrupt or incompatible shard before `out_path` is
/// opened.
void stream_merge_vbt(const std::vector<std::string>& shard_paths,
                      const std::string& out_path,
                      bool include_provenance = true);

}  // namespace varbench::io::columnar
