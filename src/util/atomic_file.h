// Crash-safe whole-file replacement: write to a temporary sibling,
// fsync it, rename() over the destination, then fsync the parent
// directory. POSIX rename is atomic within a filesystem, so a reader (or
// a crash at any instant) sees either the old complete file or the new
// complete file — never a torn mixture — and the two fsyncs make the
// replacement durable: once WriteFileAtomic returns OK the new content
// survives power loss, not just process death (checkpoint writers rely
// on this before truncating the WAL frames a checkpoint supersedes).
// Every persistent-format writer in the repo (ATISG1/ATISG2 graph files,
// WAL checkpoints) funnels through here.
#pragma once

#include <string>
#include <string_view>

#include "util/status.h"

namespace atis {

/// Atomically replaces `path` with `content`. The temporary file is
/// `path` + ".tmp.<pid>"; on any failure it is unlinked and the previous
/// `path` (if any) is left untouched.
Status WriteFileAtomic(const std::string& path, std::string_view content);

/// Test-only crash simulation for WriteFileAtomic. While a scope is
/// alive, the selected stage fails (and for kBeforeRename the temporary
/// file is deliberately left behind, as a crash would leave it): tests
/// assert the destination survives intact either way.
class ScopedAtomicWriteFailure {
 public:
  enum Stage {
    kNone = 0,
    kDuringWrite,   ///< the payload write fails mid-stream
    kBeforeRename,  ///< "crash" after the tmp file is complete
  };
  explicit ScopedAtomicWriteFailure(Stage stage);
  ~ScopedAtomicWriteFailure();
  ScopedAtomicWriteFailure(const ScopedAtomicWriteFailure&) = delete;
  ScopedAtomicWriteFailure& operator=(const ScopedAtomicWriteFailure&) =
      delete;

 private:
  Stage previous_;
};

}  // namespace atis
