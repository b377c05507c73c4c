/**
 * @file
 * Whole-file reads and file identity stamps.
 *
 * Every persisted artifact — trace containers, checkpoints, shard-cache
 * entries — is read back whole and then validated, so the read is one
 * fstat-sized read(2) loop rather than a per-character stream copy.
 * The FileStamp taken by the same fstat lets a long-lived reader (the
 * resident trace cache) tell whether the file it loaded is still the
 * file at that path: any rename-swap, rewrite or touch changes it.
 */

#ifndef P10EE_COMMON_FILE_H
#define P10EE_COMMON_FILE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace p10ee::common {

/** The identity of one version of a file, as stat(2) reports it. */
struct FileStamp
{
    uint64_t dev = 0;
    uint64_t ino = 0;
    uint64_t size = 0;
    int64_t mtimeNs = 0;
    int64_t ctimeNs = 0;

    bool operator==(const FileStamp&) const = default;
};

/**
 * stat(2) @p path. A missing path (ENOENT, ENOTDIR) is NotFound; any
 * other failure is Transient.
 */
Expected<FileStamp> statFile(const std::string& path);

/**
 * The whole regular file at @p path, read with one sized read. When
 * @p stamp is given it receives the identity of the opened file, taken
 * before the read, so a write that races the read changes the identity
 * a later statFile() sees. Errors: NotFound for a missing path,
 * InvalidArgument for a path that is not a regular file, Transient for
 * any other open or read failure.
 */
Expected<std::vector<uint8_t>> readFile(const std::string& path,
                                        FileStamp* stamp = nullptr);

} // namespace p10ee::common

#endif // P10EE_COMMON_FILE_H
