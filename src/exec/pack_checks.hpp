// exec/pack_checks — shared pack-time model validation for the execution
// engines.
//
// Every engine family (the interpreters in exec/interpreter and the c16
// and q4 packers in exec/layout) indexes vote counters by leaf class ids
// with no bounds check on the hot path, so a model whose header understates
// num_classes — reachable through trees::read_forest, whose structural
// validation does not know the forest-level class count — must be rejected
// once, when the model is packed.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace flint::exec {

/// Throws std::invalid_argument if a leaf's class id cannot index a
/// num_classes-wide vote row.
inline void check_leaf_class(std::int32_t prediction, int num_classes,
                             std::size_t tree) {
  if (prediction < 0 || prediction >= num_classes) {
    throw std::invalid_argument(
        "forest engine: leaf class " + std::to_string(prediction) +
        " out of range for " + std::to_string(num_classes) +
        " classes (tree " + std::to_string(tree) + ")");
  }
}

}  // namespace flint::exec
