/**
 * @file
 * Minimal JSON value model for the result cache.
 *
 * Cache entries and the cache index are one-line JSON documents, so
 * the cache needs to *parse* JSON — which the experiment layer's
 * emit-only helpers never did. This is a deliberately small
 * recursive-descent implementation with one property the cache
 * depends on: integer-looking numbers are kept as exact 64-bit values
 * (seeds are full-width uint64_t, which a double cannot represent), and
 * doubles round-trip through 17-significant-digit text.
 *
 * dump() never emits a raw newline (strings are escaped), so any
 * dumped value is one line.
 */

#ifndef SPECINT_SIM_SERVICE_JSON_HH
#define SPECINT_SIM_SERVICE_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specint::service
{

/** One JSON value (null / bool / number / string / array / object). */
class Json
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        /** Non-negative integer token (fits uint64_t exactly). */
        UInt,
        /** Negative integer token (fits int64_t exactly). */
        Int,
        /** Any other numeric token (fraction/exponent/overflow). */
        Real,
        Str,
        Arr,
        Obj,
    };

    Json() : kind_(Kind::Null) {}

    static Json null() { return Json(); }
    static Json boolean(bool v);
    static Json uinteger(std::uint64_t v);
    static Json integer(std::int64_t v);
    static Json real(double v);
    static Json str(std::string v);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const
    {
        return kind_ == Kind::UInt || kind_ == Kind::Int ||
               kind_ == Kind::Real;
    }
    bool isStr() const { return kind_ == Kind::Str; }
    bool isArr() const { return kind_ == Kind::Arr; }
    bool isObj() const { return kind_ == Kind::Obj; }

    bool boolValue() const { return b_; }
    /** Numeric views; each converts from whichever numeric kind is
     *  stored (UInt/Int exact, Real truncated). */
    std::uint64_t u64() const;
    std::int64_t i64() const;
    double num() const;
    const std::string &strValue() const { return s_; }

    std::vector<Json> &items() { return arr_; }
    const std::vector<Json> &items() const { return arr_; }
    void push(Json v) { arr_.push_back(std::move(v)); }

    /** Object field access; get() returns null for absent keys. */
    void set(const std::string &key, Json v);
    const Json &get(const std::string &key) const;

    /** Typed object-field conveniences (fallback on absent/mistyped). */
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback = 0) const;
    std::string getStr(const std::string &key,
                       std::string fallback = {}) const;

    /** Compact single-line serialization (keys in sorted map order, so
     *  dumps are deterministic). */
    std::string dump() const;

    /**
     * Parse @p text as one JSON value (leading/trailing whitespace
     * allowed, nothing else may follow). Returns false and sets
     * @p error on malformed input.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *error = nullptr);

  private:
    Kind kind_;
    bool b_ = false;
    std::uint64_t u_ = 0;
    std::int64_t i_ = 0;
    double d_ = 0.0;
    std::string s_;
    std::vector<Json> arr_;
    std::map<std::string, Json> obj_;
};

} // namespace specint::service

#endif // SPECINT_SIM_SERVICE_JSON_HH
