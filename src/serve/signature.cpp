#include "serve/signature.hpp"

#include <cstdio>

namespace barracuda::serve {

std::string signature(const core::TuningProblem& problem,
                      const vgpu::DeviceProfile& device) {
  // This runs on EVERY get_plan request — with the registry read now a
  // mutex-free snapshot lookup, signature construction is the biggest
  // per-request cost on the warm path — so build the string directly
  // (one reserve, plain appends) instead of through an ostringstream.
  std::string sig;
  sig.reserve(64 + 16 * problem.extents.size());
  sig += device.name;
  sig += '|';
  // tensor::Extents is an ordered map, so iteration order is the sorted
  // index order regardless of how the DSL declared them.
  char extent_text[24];
  for (const auto& [index, extent] : problem.extents) {
    sig += index;
    sig += '=';
    std::snprintf(extent_text, sizeof extent_text, "%lld",
                  static_cast<long long>(extent));
    sig += extent_text;
    sig += ',';
  }
  sig += '|';
  for (const auto& stmt : problem.statements) {
    sig += stmt.to_string();
    sig += ';';
  }
  return sig;
}

std::string signature_of_dsl(std::string_view dsl_text,
                             const vgpu::DeviceProfile& device) {
  return signature(core::TuningProblem::from_dsl(dsl_text), device);
}

}  // namespace barracuda::serve
