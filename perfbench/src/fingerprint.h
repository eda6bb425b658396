#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <string>

namespace perfbench {

/// What a result was measured on. Two results are judged against each
/// other only when every field matches; otherwise the comparison is
/// reported, not judged (a 1-thread baseline never judges a 4-core run).
struct Fingerprint {
  unsigned cores = 0;      // std::thread::hardware_concurrency()
  std::string isa;         // "avx512_vnni", "avx2" or "baseline"
  std::string compiler;    // e.g. "gcc 13.2.0"
  std::string build_type;  // CMAKE_BUILD_TYPE of the benchmark build

  bool operator==(const Fingerprint& other) const = default;
};

/// The fingerprint of this process and build.
Fingerprint CurrentFingerprint();

/// One-line description, e.g. "4 cores, avx2, gcc 13.2.0, Release".
std::string Describe(const Fingerprint& fp);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
