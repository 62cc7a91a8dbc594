/**
 * @file
 * Typed result cell for experiment rows.
 *
 * A Row is a vector of Values aligned with the scenario's column list.
 * Keeping cells typed (instead of pre-formatted strings) lets one row
 * feed all three emitters: the aligned text table, CSV (formatted with
 * the cell's own precision so legacy CSV layouts are reproduced
 * byte-for-byte) and JSON (numbers emitted as numbers, booleans as
 * booleans).
 */

#ifndef SPECINT_SIM_EXPERIMENT_VALUE_HH
#define SPECINT_SIM_EXPERIMENT_VALUE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace specint::experiment
{

/** One typed cell of an experiment row. */
class Value
{
  public:
    enum class Kind : std::uint8_t { Str, Int, UInt, Real, Bool };

    Value() : kind_(Kind::Str) {}

    static Value str(std::string s);
    static Value integer(std::int64_t v);
    static Value uinteger(std::uint64_t v);
    /** @param precision printf %.Nf digits used by text()/csv(). */
    static Value real(double v, int precision = 2);
    static Value boolean(bool v);

    Kind kind() const { return kind_; }

    /** Human/CSV rendering (Real honours its precision; Bool is 1/0 so
     *  legacy "open" columns keep their shape). */
    std::string text() const;
    /** JSON fragment (quoted/escaped string, bare number, true/false).
     *  Non-finite reals are emitted as null. */
    std::string json() const;

    /** Raw numeric view (Str -> 0). Renderers use this to recompute
     *  aggregates (geomeans, agreement counts) at full precision. */
    double num() const;
    std::uint64_t numU64() const;
    bool truthy() const { return num() != 0.0; }
    const std::string &strValue() const { return s_; }

    /** @name Exact per-kind views, used by the result-cache codec to
     *  round-trip cells losslessly (src/sim/service/). */
    /// @{
    double realValue() const { return d_; }
    int precision() const { return precision_; }
    /// @}

  private:
    Kind kind_;
    std::string s_;
    std::int64_t i_ = 0;
    std::uint64_t u_ = 0;
    double d_ = 0.0;
    bool b_ = false;
    int precision_ = 2;
};

/** One experiment result row, aligned with Scenario::columns. */
using Row = std::vector<Value>;

/** Escape a string as a JSON string literal (with quotes). */
std::string jsonEscape(const std::string &s);

} // namespace specint::experiment

#endif // SPECINT_SIM_EXPERIMENT_VALUE_HH
