#include "fingerprint.h"

#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string IsaLevel() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512vnni")) return "avx512_vnni";
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "baseline";
}

std::string Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

Fingerprint CurrentFingerprint() {
  Fingerprint fp;
  fp.cores = std::thread::hardware_concurrency();
  fp.isa = IsaLevel();
  fp.compiler = Compiler();
  fp.build_type = PERFBENCH_BUILD_TYPE;
  return fp;
}

std::string Describe(const Fingerprint& fp) {
  return std::to_string(fp.cores) + " cores, " + fp.isa + ", " +
         fp.compiler + ", " + fp.build_type;
}

}  // namespace perfbench
