// Seeded inputs of the benchmark workloads: the paper's kernels for
// `tune`, and the signature sets and never-seen shapes the serving
// workloads request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/barracuda.hpp"
#include "vgpu/device.hpp"

namespace barracuda::perfbench {

/// The three modeled GPUs of the paper's evaluation (C2050, K20, GTX 980).
const std::vector<vgpu::DeviceProfile>& paper_devices();

struct TuneCase {
  std::string name;
  core::TuningProblem problem;
  const vgpu::DeviceProfile* device = nullptr;
};

/// One pass of the `tune` workload: the four Table II computations on
/// every device, and the 27 NWChem kernels (S1, D1, D2 at n=16), each
/// family's kernels dealt to the devices three apiece by a seeded shuffle;
/// all in a seeded order.
std::vector<TuneCase> tune_pass(std::uint64_t seed);

/// A contraction shape whose extents vary: a DSL template over two extents.
struct ShapeFamily {
  const char* name;
  int a_lo, a_hi, b_lo, b_hi;  // extent ranges of the two dims groups
  std::string dsl(int a, int b) const;
};
const std::vector<ShapeFamily>& shape_families();

struct Request {
  core::TuningProblem problem;
  const vgpu::DeviceProfile* device = nullptr;
  std::string signature;
  std::size_t family = 0;
  int a = 0, b = 0;  // the family's two extents
};

/// The prewarmed signature set: every shape family at three extents, on
/// every device.
std::vector<Request> warm_set();

/// `count` shapes no warm_set() signature uses (extent pairs a != b),
/// cycling through the families and devices; each family's extent pairs
/// are a systematic sample of its range with a seeded offset and order.
std::vector<Request> novel_shapes(std::uint64_t seed, std::size_t count);

/// Per-family Zipf-skewed request streams over `set`: each draw picks a
/// family uniformly, then a member of it by Zipf rank (exponent 1.1,
/// rank order shuffled by the seed), so the hot signatures change with the
/// seed while the mix of shapes does not.
class ZipfPicker {
 public:
  ZipfPicker(const std::vector<Request>& set, std::uint64_t seed);
  /// `n` request indices drawn with the given stream seed.
  std::vector<std::uint32_t> draw(std::size_t n, std::uint64_t stream) const;

 private:
  std::vector<std::vector<std::uint32_t>> members_;  // per family, by rank
  std::vector<std::vector<double>> cdf_;             // per family
};

}  // namespace barracuda::perfbench
