// Preloaded (LD_PRELOAD) into the replicas of the durable workload: fsync and
// fdatasync return at once, as they nearly do on tmpfs. The replicas' storage
// code (WAL appends, checkpoint writes and renames, the USIG counter lease)
// runs unchanged; only the device flush is skipped, because on a shared
// virtual disk its latency measures the host rather than the program.
extern "C" int fsync(int) { return 0; }
extern "C" int fdatasync(int) { return 0; }
