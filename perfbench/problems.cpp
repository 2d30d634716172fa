#include "problems.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "benchsuite/workloads.hpp"
#include "serve/signature.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace barracuda::perfbench {
namespace {

// The warm extents of every family: a == b, so no novel shape (a != b)
// can collide with a warm signature.
constexpr int kWarmExtents[4][3] = {{6, 8, 10}, {8, 10, 12}, {6, 8, 10},
                                    {8, 10, 12}};

Request make_request(std::size_t family, int a, int b,
                     const vgpu::DeviceProfile& device) {
  Request r;
  r.family = family;
  r.a = a;
  r.b = b;
  r.device = &device;
  r.problem = core::TuningProblem::from_dsl(
      shape_families()[family].dsl(a, b),
      std::string(shape_families()[family].name) + "_" + std::to_string(a) +
          "_" + std::to_string(b));
  r.signature = serve::signature(r.problem, device);
  return r;
}

}  // namespace

const std::vector<vgpu::DeviceProfile>& paper_devices() {
  static const std::vector<vgpu::DeviceProfile> devices = {
      vgpu::DeviceProfile::tesla_c2050(), vgpu::DeviceProfile::tesla_k20(),
      vgpu::DeviceProfile::gtx980()};
  return devices;
}

std::vector<TuneCase> tune_pass(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<TuneCase> pass;
  for (const auto& b : benchsuite::table2_benchmarks()) {
    for (const vgpu::DeviceProfile& device : paper_devices()) {
      pass.push_back({b.name, b.problem, &device});
    }
  }
  // Each family's kernels are dealt to the devices in turn (three each),
  // after a seeded shuffle, so every pass has the same device mix.
  for (auto family : {benchsuite::s1_family(), benchsuite::d1_family(),
                      benchsuite::d2_family()}) {
    for (std::size_t i = family.size(); i > 1; --i) {
      std::swap(family[i - 1], family[rng.index(i)]);
    }
    for (std::size_t i = 0; i < family.size(); ++i) {
      pass.push_back({family[i].name, family[i].problem,
                      &paper_devices()[i % paper_devices().size()]});
    }
  }
  for (std::size_t i = pass.size(); i > 1; --i) {
    std::swap(pass[i - 1], pass[rng.index(i)]);
  }
  return pass;
}

std::string ShapeFamily::dsl(int a, int b) const {
  const std::string sa = std::to_string(a), sb = std::to_string(b);
  const std::string n = name;
  if (n == "eqn1") {
    return "dim i j k = " + sa + "\ndim l m n = " + sb +
           "\nV[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])\n";
  }
  if (n == "spectral2d") {
    return "dim i j = " + sa + "\ndim k l = " + sb +
           "\nV[i j] = Sum([k l], A[l j] * B[k i] * U[k l])\n";
  }
  if (n == "lg3") {
    return "dim e = " + std::to_string(4 * a) + "\ndim i j k l = " + sb +
           "\nUR[e i j k] += D[i l] * U[e l j k]"
           "\nUS[e i j k] += D[j l] * U[e i l k]"
           "\nUT[e i j k] += D[k l] * U[e i j l]\n";
  }
  // nwchem_d1: the d1_1 doubles kernel with two extent groups.
  return "dim h1 h2 h3 = " + sa + "\ndim h7 p4 p5 p6 = " + sb +
         "\nt3[h3 h2 h1 p6 p5 p4] += t2[h7 p4 p5 h1] * v2[h3 h2 p6 h7]\n";
}

const std::vector<ShapeFamily>& shape_families() {
  static const std::vector<ShapeFamily> families = {
      {"eqn1", 4, 14, 4, 14},
      {"spectral2d", 6, 40, 6, 40},
      {"lg3", 2, 16, 4, 12},
      {"nwchem_d1", 4, 16, 4, 16}};
  return families;
}

std::vector<Request> warm_set() {
  std::vector<Request> set;
  for (std::size_t f = 0; f < shape_families().size(); ++f) {
    for (int x : kWarmExtents[f]) {
      for (const auto& device : paper_devices()) {
        set.push_back(make_request(f, x, x, device));
      }
    }
  }
  return set;
}

std::vector<Request> novel_shapes(std::uint64_t seed, std::size_t count) {
  Rng rng(seed * 0xbf58476d1ce4e5b9ull + 7);
  const std::size_t families = shape_families().size();
  // Per family, a systematic sample (seeded offset, even stride) of its
  // extent pairs, so every run covers each family's extent range alike.
  std::vector<std::vector<std::pair<int, int>>> picks(families);
  for (std::size_t f = 0; f < families; ++f) {
    const ShapeFamily& fam = shape_families()[f];
    std::vector<std::pair<int, int>> grid;
    for (int a = fam.a_lo; a <= fam.a_hi; ++a) {
      for (int b = fam.b_lo; b <= fam.b_hi; ++b) {
        if (a != b) grid.emplace_back(a, b);
      }
    }
    const std::size_t k = (count + families - 1 - f) / families;
    if (k > grid.size()) throw Error("too many novel shapes requested");
    const double offset = rng.uniform();
    for (std::size_t j = 0; j < k; ++j) {
      picks[f].push_back(grid[static_cast<std::size_t>(
          (static_cast<double>(j) + offset) * static_cast<double>(grid.size()) /
          static_cast<double>(k))]);
    }
    for (std::size_t i = picks[f].size(); i > 1; --i) {
      std::swap(picks[f][i - 1], picks[f][rng.index(i)]);
    }
  }
  std::vector<Request> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t f = i % families, j = i / families;
    const auto& device = paper_devices()[j % paper_devices().size()];
    out.push_back(make_request(f, picks[f][j].first, picks[f][j].second,
                               device));
  }
  return out;
}

ZipfPicker::ZipfPicker(const std::vector<Request>& set, std::uint64_t seed) {
  Rng rng(seed * 0x94d049bb133111ebull + 3);
  std::size_t families = 0;
  for (const Request& r : set) families = std::max(families, r.family + 1);
  members_.resize(families);
  cdf_.resize(families);
  for (std::uint32_t i = 0; i < set.size(); ++i) {
    members_[set[i].family].push_back(i);
  }
  for (std::size_t f = 0; f < families; ++f) {
    auto& m = members_[f];
    for (std::size_t i = m.size(); i > 1; --i) {
      std::swap(m[i - 1], m[rng.index(i)]);
    }
    double total = 0;
    for (std::size_t rank = 1; rank <= m.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), 1.1);
      cdf_[f].push_back(total);
    }
    for (double& c : cdf_[f]) c /= total;
  }
}

std::vector<std::uint32_t> ZipfPicker::draw(std::size_t n,
                                            std::uint64_t stream) const {
  Rng rng(stream * 0x2545f4914f6cdd1dull + 11);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t f = rng.index(members_.size());
    const double u = rng.uniform();
    const auto& cdf = cdf_[f];
    std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out.push_back(members_[f][std::min(rank, cdf.size() - 1)]);
  }
  return out;
}

}  // namespace barracuda::perfbench
