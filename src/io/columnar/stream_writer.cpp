#include "src/io/columnar/stream_writer.h"

#include "src/io/columnar/vbt.h"
#include "src/study/result_table.h"

namespace varbench::io::columnar {

void stream_merge_vbt(const std::vector<std::string>& shard_paths,
                      const std::string& out_path, bool include_provenance) {
  std::vector<study::ResultTable> shards;
  shards.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    shards.push_back(study::ResultTable::load(path));
  }
  write_vbt(out_path, study::merge_result_tables(std::move(shards)),
            include_provenance);
}

}  // namespace varbench::io::columnar
