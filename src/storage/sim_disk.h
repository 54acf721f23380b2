// Simulated shared disk (substitution substrate — see README, "Simulated
// disk").
//
// The paper's evaluation ran on a 100 GB fact table behind a RAID array:
// the decisive effect for the query-at-a-time baselines is that n private
// scans share one disk, so (a) each scan gets ~1/n of the sequential
// bandwidth and (b) interleaved readers turn sequential access into
// seek-bound access. At reproduction scale the data fits in RAM, which
// would erase that effect, so SimDisk restores it: a single-server disk
// model that serializes transfer time and charges a seek penalty whenever
// the disk switches between readers.
//
// Every scan calls Acquire(reader, bytes) before consuming a page. The
// model computes when that transfer would complete on the simulated device
// and sleeps the caller until then. One shared scan (CJOIN) pays the seek
// penalty almost never; n private scans pay it constantly — exactly the
// behaviour of §6's testbed.

#ifndef CJOIN_STORAGE_SIM_DISK_H_
#define CJOIN_STORAGE_SIM_DISK_H_

#include <chrono>
#include <cstdint>

#include "common/mutex.h"

namespace cjoin {

/// Token-bucket style disk model shared by all concurrent scans.
/// Thread-safe.
class SimDisk {
 public:
  struct Options {
    /// Sequential transfer bandwidth of the simulated device.
    double bandwidth_bytes_per_sec = 400.0 * 1024 * 1024;
    /// Positioning cost charged when the device switches readers.
    std::chrono::microseconds seek_time = std::chrono::microseconds(1500);
    /// When false, Acquire() is a no-op (memory-resident mode).
    bool enabled = true;
  };

  explicit SimDisk(Options options) : opts_(options) {}
  SimDisk() : SimDisk(Options{}) {}

  /// Blocks the caller until the simulated device has transferred `bytes`
  /// on behalf of `reader_id`. Distinct readers contend; a reader that has
  /// the device "positioned" (it was the last user) pays no seek.
  void Acquire(uint64_t reader_id, uint64_t bytes) EXCLUDES(mu_);

  /// Total simulated busy time accumulated, in seconds.
  double BusySeconds() const EXCLUDES(mu_);

  /// Number of reader switches (seeks) charged so far.
  uint64_t SeekCount() const EXCLUDES(mu_);

  const Options& options() const { return opts_; }

 private:
  using Clock = std::chrono::steady_clock;

  Options opts_;
  mutable Mutex mu_;
  /// When the device next becomes idle.
  Clock::time_point device_free_ GUARDED_BY(mu_){};
  uint64_t last_reader_ GUARDED_BY(mu_) = ~uint64_t{0};
  uint64_t seeks_ GUARDED_BY(mu_) = 0;
  double busy_seconds_ GUARDED_BY(mu_) = 0.0;
  bool started_ GUARDED_BY(mu_) = false;
};

}  // namespace cjoin

#endif  // CJOIN_STORAGE_SIM_DISK_H_
