// core/flint — the FLInt operator family: floating-point comparison realized
// purely with two's-complement integer and logic operations.
//
// The paper proves (Theorem 1) that for bit vectors X, Y:
//
//   FP(X) >= FP(Y)  <=>  (SI(X) >= SI(Y)) XOR
//                        (SI(X) < 0  &&  SI(Y) < 0  &&  SI(X) != SI(Y))
//
// and (Theorem 2) that when the sign of one operand is known a priori the
// case split can be resolved by negating/swapping, leaving a single integer
// comparison.  This header provides:
//
//   * runtime comparators for float/double in three formulations
//     (Theorem 1, Theorem 2, and a monotone "radix key" remap), all
//     implementing the same total order with -0.0 < +0.0;
//   * EncodedThreshold: the codegen-time resolution of Theorem 2 for a
//     constant threshold, which is what the if-else code generators and the
//     native-tree interpreters consume (zero case handling on the hot path);
//   * the semantics contract: NaN-free total order.  Infinities order as
//     extreme values.  NaNs are ordered by raw bit pattern (documented
//     deviation from IEEE-754; random forests never produce NaN splits).
//
// Everything here is constexpr and header-only so the compiler can fold
// thresholds into immediates exactly as the paper's generated code does.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

namespace flint::core {

/// Maps a floating-point type to its same-width signed/unsigned integer types
/// and the format's masks.  Only binary32 and binary64 are instantiated.
template <typename T>
struct FloatTraits;

template <>
struct FloatTraits<float> {
  using Signed = std::int32_t;
  using Unsigned = std::uint32_t;
  static constexpr Signed sign_mask = std::int32_t{1} << 31;
  static constexpr Unsigned abs_mask = 0x7FFF'FFFFu;
  static constexpr Unsigned exp_mask = 0x7F80'0000u;
  static constexpr const char* c_int_type = "int32_t";
  static constexpr int bits = 32;
};

template <>
struct FloatTraits<double> {
  using Signed = std::int64_t;
  using Unsigned = std::uint64_t;
  static constexpr Signed sign_mask = std::int64_t{1} << 63;
  static constexpr Unsigned abs_mask = 0x7FFF'FFFF'FFFF'FFFFull;
  static constexpr Unsigned exp_mask = 0x7FF0'0000'0000'0000ull;
  static constexpr const char* c_int_type = "int64_t";
  static constexpr int bits = 64;
};

template <typename T>
concept FlintFloat = std::is_same_v<T, float> || std::is_same_v<T, double>;

/// SI(B): the two's-complement reading of a float's bit pattern.
template <FlintFloat T>
[[nodiscard]] constexpr typename FloatTraits<T>::Signed si_bits(T v) noexcept {
  return std::bit_cast<typename FloatTraits<T>::Signed>(v);
}

/// Inverse of si_bits.
template <FlintFloat T>
[[nodiscard]] constexpr T from_si_bits(typename FloatTraits<T>::Signed bits) noexcept {
  return std::bit_cast<T>(bits);
}

/// NaN test on the two's-complement reading itself: a pattern is NaN iff its
/// magnitude bits exceed the exponent mask (all-ones exponent, non-zero
/// mantissa).  This is the integer-side isnan every missing-value-aware
/// engine uses, so NaN routing never needs a float comparison.
template <FlintFloat T>
[[nodiscard]] constexpr bool is_nan_bits(
    typename FloatTraits<T>::Signed bits) noexcept {
  using U = typename FloatTraits<T>::Unsigned;
  return (static_cast<U>(bits) & FloatTraits<T>::abs_mask) >
         FloatTraits<T>::exp_mask;
}

// ---------------------------------------------------------------------------
// Formulation 1: Theorem 1 — XOR of integer predicates.
// ---------------------------------------------------------------------------

/// FP(a) >= FP(b) via Theorem 1.  Branch-free: the three sub-predicates and
/// the XOR compile to flag tests / setcc on x86 and csel/eor on ARMv8.
template <FlintFloat T>
[[nodiscard]] constexpr bool ge_theorem1(T a, T b) noexcept {
  const auto x = si_bits(a);
  const auto y = si_bits(b);
  const bool u = x >= y;
  const bool v = (x < 0) && (y < 0) && (x != y);
  return u != v;  // XOR: negate u exactly when both operands are negative and unequal
}

// ---------------------------------------------------------------------------
// Formulation 2: Theorem 2 — conditional operand negate + swap.
// ---------------------------------------------------------------------------

/// FP(a) >= FP(b) via Theorem 2 with the sign of `a` tested at runtime.
/// When SI(a) < 0, both operands are FP-negated by flipping their sign bits
/// (exactly what Listing 4 emits: `^ (0b1 << 31)`) and the relation is
/// reversed: FP(a) >= FP(b)  <=>  FP(-a) <= FP(-b).  After the flip the
/// first operand is non-negative, so the pair contains at least one
/// positive-signed value and the plain signed-integer comparison is
/// order-correct (Lemmas 3 and 5).  The theorem statement's "-1 * SI"
/// would overflow on SI(-0.0); the sign-bit flip is the overflow-free
/// realization with identical ordering semantics under -0.0 < +0.0.
template <FlintFloat T>
[[nodiscard]] constexpr bool ge_theorem2(T a, T b) noexcept {
  using S = typename FloatTraits<T>::Signed;
  const S x = si_bits(a);
  const S y = si_bits(b);
  if (x < 0) {
    return (x ^ FloatTraits<T>::sign_mask) <= (y ^ FloatTraits<T>::sign_mask);
  }
  return x >= y;
}

// ---------------------------------------------------------------------------
// Formulation 3: monotone radix key.
// ---------------------------------------------------------------------------
// Classic order-linearizing remap: non-negative patterns map to themselves,
// negative patterns have their magnitude bits inverted.  After the remap the
// float order *is* the signed integer order, so one remap per operand buys
// unlimited comparisons (useful when a feature value is compared against
// several thresholds, and the basis of the ablation in bench_ablation_*).

template <FlintFloat T>
[[nodiscard]] constexpr typename FloatTraits<T>::Signed
to_radix_key(T v) noexcept {
  using S = typename FloatTraits<T>::Signed;
  using U = typename FloatTraits<T>::Unsigned;
  const S b = si_bits(v);
  // b >= 0: key = b.  b < 0: key = b XOR 0x7FF..F (flip everything but sign).
  const U flip = static_cast<U>(b >> (FloatTraits<T>::bits - 1)) >> 1;
  return static_cast<S>(static_cast<U>(b) ^ flip);
}

/// Inverse of to_radix_key.  The remap flips the magnitude bits exactly
/// when the (preserved) sign bit is set, so applying the same transform to
/// a key recovers the original float pattern — it is an involution.
template <FlintFloat T>
[[nodiscard]] constexpr T from_radix_key(
    typename FloatTraits<T>::Signed key) noexcept {
  using S = typename FloatTraits<T>::Signed;
  using U = typename FloatTraits<T>::Unsigned;
  const U flip = static_cast<U>(key >> (FloatTraits<T>::bits - 1)) >> 1;
  return from_si_bits<T>(static_cast<S>(static_cast<U>(key) ^ flip));
}

/// FP(a) >= FP(b) via the radix-key remap.
template <FlintFloat T>
[[nodiscard]] constexpr bool ge_radix(T a, T b) noexcept {
  return to_radix_key(a) >= to_radix_key(b);
}

// ---------------------------------------------------------------------------
// Derived relations (the paper's Section IV-A: <=, <, > follow by operand
// exchange and negation).  Theorem 1 is the default runtime formulation.
// ---------------------------------------------------------------------------

template <FlintFloat T>
[[nodiscard]] constexpr bool ge(T a, T b) noexcept { return ge_theorem1(a, b); }
template <FlintFloat T>
[[nodiscard]] constexpr bool le(T a, T b) noexcept { return ge_theorem1(b, a); }
template <FlintFloat T>
[[nodiscard]] constexpr bool gt(T a, T b) noexcept { return !ge_theorem1(b, a); }
template <FlintFloat T>
[[nodiscard]] constexpr bool lt(T a, T b) noexcept { return !ge_theorem1(a, b); }
/// Lemma 1: FP equality is bit equality (with -0.0 != +0.0 by design).
template <FlintFloat T>
[[nodiscard]] constexpr bool eq(T a, T b) noexcept { return si_bits(a) == si_bits(b); }

/// Three-way total order (C++ <=> style): -1, 0, +1.
template <FlintFloat T>
[[nodiscard]] constexpr int total_order(T a, T b) noexcept {
  const auto ka = to_radix_key(a);
  const auto kb = to_radix_key(b);
  return (ka > kb) - (ka < kb);
}

// ---------------------------------------------------------------------------
// Codegen-time threshold encoding (Theorem 2 resolved offline).
// ---------------------------------------------------------------------------

/// How a constant `x <= s` test is realized with one integer comparison.
enum class ThresholdMode {
  /// s has sign bit 0 after -0.0 rewriting:  si(x) <= imm.
  Direct,
  /// s < 0: both FP sign bits are flipped and the relation reversed:
  ///        imm <= (si(x) XOR sign_mask),  with imm = bits(|s|).
  SignFlip,
};

/// The offline-resolved form of the node condition `x <= s` (Listing 2 / 4).
/// Produced once per tree node at code-generation time; consumed by the
/// interpreters and the C/asm emitters.
template <FlintFloat T>
struct EncodedThreshold {
  using Signed = typename FloatTraits<T>::Signed;
  ThresholdMode mode = ThresholdMode::Direct;
  Signed immediate = 0;

  /// Evaluates `FP(x) <= s` using only integer ops.
  [[nodiscard]] constexpr bool le(T x) const noexcept {
    const Signed xi = si_bits(x);
    if (mode == ThresholdMode::Direct) {
      return xi <= immediate;
    }
    return immediate <= (xi ^ FloatTraits<T>::sign_mask);
  }

  friend constexpr bool operator==(const EncodedThreshold&,
                                   const EncodedThreshold&) = default;
};

/// Rewrites a split of -0.0 to +0.0: FLInt orders -0.0 < +0.0 while
/// IEEE-754 treats them as equal, and the rewrite makes `x <= -0.0` (IEEE:
/// true for x=+0.0) agree for every input (paper Section IV-B, footnote 1).
/// Every consumer of a split — encoders, key tables, packers, quantizers,
/// the verifier — keys the rewritten value.
template <FlintFloat T>
[[nodiscard]] constexpr T normalize_zero(T split) noexcept {
  return split == T{0} ? T{0} : split;
}

/// Encodes the split constant for a `x <= s` test, after normalize_zero.
template <FlintFloat T>
[[nodiscard]] constexpr EncodedThreshold<T> encode_threshold_le(T split) noexcept {
  using S = typename FloatTraits<T>::Signed;
  const S bits = si_bits(normalize_zero(split));
  if (bits >= 0) {
    return {ThresholdMode::Direct, bits};
  }
  // Negative split: compare against |s| with the feature's sign flipped.
  return {ThresholdMode::SignFlip,
          static_cast<S>(bits ^ FloatTraits<T>::sign_mask)};
}

/// Renders the encoded comparison as the C expression the paper's Listings
/// 2 and 4 show, with `feature_expr` substituted for the integer load.
template <FlintFloat T>
[[nodiscard]] std::string to_c_expression(const EncodedThreshold<T>& t,
                                          const std::string& feature_expr);

/// Hex immediate literal (e.g. "0x41213087") of the encoded threshold.
template <FlintFloat T>
[[nodiscard]] std::string immediate_hex(const EncodedThreshold<T>& t);

// ---------------------------------------------------------------------------
// Generalized relations (paper Section III-C: "this also implies that all
// other relations (<=, >, <) hold in the same manner").
// ---------------------------------------------------------------------------

/// Relation of the test `x REL split` with a compile-time-constant split.
enum class Relation { LE, LT, GE, GT };

[[nodiscard]] constexpr const char* to_string(Relation r) noexcept {
  switch (r) {
    case Relation::LE: return "<=";
    case Relation::LT: return "<";
    case Relation::GE: return ">=";
    case Relation::GT: return ">";
  }
  return "?";
}

/// Offline-resolved integer predicate for `x REL split`, IEEE-equivalent on
/// every non-NaN input including the signed-zero cluster.
///
/// Construction: LE uses encode_threshold_le directly (split -0.0 -> +0.0).
/// GE encodes the reversed test `split <= x` with the *opposite* zero
/// rewrite (+0.0 -> -0.0), because the equality boundary now sits on the
/// other side of the two-zero cluster.  LT/GT are the negations of GE/LE —
/// exact complements in both IEEE (non-NaN) and integer arithmetic.
template <FlintFloat T>
struct EncodedPredicate {
  using Signed = typename FloatTraits<T>::Signed;

  /// Integer comparison form; Forward* evaluate thresholds on si(x),
  /// Reverse* evaluate them on the flipped/si'd x from the right side.
  enum class Form {
    ForwardDirect,   ///< si(x) <= imm
    ForwardFlip,     ///< imm <= (si(x) ^ sign)
    ReverseDirect,   ///< imm <= si(x)
    ReverseFlip,     ///< (si(x) ^ sign) <= imm
  };

  Form form = Form::ForwardDirect;
  bool negate = false;
  Signed immediate = 0;

  [[nodiscard]] constexpr bool operator()(T x) const noexcept {
    const Signed xi = si_bits(x);
    bool r = false;
    switch (form) {
      case Form::ForwardDirect: r = xi <= immediate; break;
      case Form::ForwardFlip:
        r = immediate <= (xi ^ FloatTraits<T>::sign_mask);
        break;
      case Form::ReverseDirect: r = immediate <= xi; break;
      case Form::ReverseFlip:
        r = (xi ^ FloatTraits<T>::sign_mask) <= immediate;
        break;
    }
    return r != negate;
  }

  friend constexpr bool operator==(const EncodedPredicate&,
                                   const EncodedPredicate&) = default;
};

/// Encodes `x REL split` (see EncodedPredicate).  split must not be NaN —
/// checked in debug builds only (forests never train NaN splits).
template <FlintFloat T>
[[nodiscard]] constexpr EncodedPredicate<T> encode_relation(Relation rel,
                                                            T split) noexcept {
  using S = typename FloatTraits<T>::Signed;
  using P = EncodedPredicate<T>;
  P out;
  if (rel == Relation::LE || rel == Relation::GT) {
    // Based on `x <= s` with the -0 -> +0 rewrite.
    const EncodedThreshold<T> le = encode_threshold_le(split);
    out.form = le.mode == ThresholdMode::Direct ? P::Form::ForwardDirect
                                                : P::Form::ForwardFlip;
    out.immediate = le.immediate;
    out.negate = rel == Relation::GT;
    return out;
  }
  // GE / LT: encode `split <= x` with the +0 -> -0 rewrite.
  S bits = si_bits(split);
  if (bits == 0) {
    bits = FloatTraits<T>::sign_mask;  // +0.0 -> -0.0
  }
  if (bits >= 0) {
    out.form = P::Form::ReverseDirect;
    out.immediate = bits;
  } else {
    out.form = P::Form::ReverseFlip;
    out.immediate = static_cast<S>(bits ^ FloatTraits<T>::sign_mask);
  }
  out.negate = rel == Relation::LT;
  return out;
}

}  // namespace flint::core
