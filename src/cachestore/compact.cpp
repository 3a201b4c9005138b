#include "cachestore/compact.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "cachestore/log.hpp"

namespace cosa {
namespace cachestore {

std::string
compactionTempPath(const std::string& log_path)
{
    return log_path + ".tmp";
}

StatusOr<std::uint64_t>
compactLogFile(const std::string& log_path,
               const std::vector<std::string>& payloads)
{
    const std::string tmp_path = compactionTempPath(log_path);
    LogWriter writer;
    // valid_bytes 0 truncates whatever a crashed fold left. Batch mode:
    // one fsync for the whole generation (below), not one per record —
    // the generation only becomes real at the rename.
    Status opened = writer.open(tmp_path, /*valid_bytes=*/0,
                                /*fsync_each_append=*/false);
    if (!opened.ok())
        return opened;
    for (const std::string& payload : payloads) {
        Status appended = writer.append(payload);
        if (!appended.ok()) {
            writer.close();
            std::remove(tmp_path.c_str());
            return appended;
        }
    }
    Status synced = writer.sync();
    if (!synced.ok()) {
        writer.close();
        std::remove(tmp_path.c_str());
        return synced;
    }
    const std::uint64_t bytes = writer.bytes();
    writer.close();
    if (std::rename(tmp_path.c_str(), log_path.c_str()) != 0) {
        const Status status{ErrorCode::kIoError,
                            "cachestore: rename " + tmp_path + " -> " +
                                log_path + " failed: " +
                                std::strerror(errno)};
        std::remove(tmp_path.c_str());
        return status;
    }
    return bytes;
}

} // namespace cachestore
} // namespace cosa
