// predict/jit_predictor — predictor wrappers over JIT-loaded modules.
//
// Split out of predictor.hpp so the core predictor interface no longer
// drags jit/jit.hpp + codegen/emit.hpp into every includer; only callers
// that construct JIT predictors directly (the factory's implementation, the
// experiment harness, codegen tests) include this header.
#pragma once

#include <memory>
#include <string>

#include "codegen/emit.hpp"
#include "jit/jit.hpp"
#include "predict/predictor.hpp"

namespace flint::predict {

/// Wraps a JIT-loaded classify symbol (ABI: `int f(const T*)`).  Owns the
/// module; copies of the predictor share it.  The experiment harness builds
/// these directly over the paper's code generators (ifelse, native, CAGS,
/// asm), which are not make_predictor backends; it compiles its grid of
/// modules up front.
template <typename T>
class JitPredictor final : public Predictor<T> {
 public:
  /// Takes ownership of a loaded module and resolves `symbol` in it.
  JitPredictor(jit::JitModule module, const std::string& symbol,
               std::string flavor, int num_classes, std::size_t feature_count);
  /// Compiles `code` and resolves its classify symbol.
  JitPredictor(const codegen::GeneratedCode& code, const jit::JitOptions& jopt,
               int num_classes, std::size_t feature_count);

  [[nodiscard]] std::string name() const override { return "jit:" + flavor_; }
  [[nodiscard]] int num_classes() const noexcept override { return num_classes_; }
  [[nodiscard]] std::size_t feature_count() const noexcept override {
    return feature_count_;
  }
  /// Size in bytes of the underlying shared object.
  [[nodiscard]] std::size_t object_size() const noexcept {
    return module_->object_size();
  }

 protected:
  void do_predict_batch(const T* features, std::size_t n_samples,
                        std::int32_t* out) const override;

 private:
  std::shared_ptr<jit::JitModule> module_;
  jit::ClassifyFn<T>* classify_ = nullptr;
  std::string flavor_;
  int num_classes_ = 0;
  std::size_t feature_count_ = 0;
};

extern template class JitPredictor<float>;
extern template class JitPredictor<double>;

}  // namespace flint::predict
