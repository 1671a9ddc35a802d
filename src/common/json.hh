/**
 * @file
 * A minimal self-contained JSON document model, writer and parser.
 *
 * The simulator's machine-readable output (stat-group dumps, the
 * experiment grid, the result store's entry files) must be consumable
 * by external tooling without pulling a third-party dependency into
 * the build, so this implements just the subset those consumers need:
 *
 *  - a Value DOM (null / bool / number / string / array / object);
 *    numbers built from 64-bit integers keep their exact value (no
 *    silent narrowing through double above 2^53 — cycle counters and
 *    distribution accumulators of very long simulations stay
 *    bit-exact), and the parser restores integer literals exactly,
 *  - objects preserve insertion order, so exported documents have a
 *    stable, deterministic key ordering run to run,
 *  - a writer with optional pretty-printing; doubles are emitted via
 *    std::to_chars (shortest round-trippable form), numbers that hold
 *    exact integral values print without a decimal point, and exact
 *    64-bit integers print all their digits,
 *  - a recursive-descent parser (used by the tests to round-trip the
 *    benches' output) that raises FatalError on malformed input,
 *    including a \u escape of a lone UTF-16 surrogate; a surrogate
 *    pair decodes to one 4-byte UTF-8 sequence.
 */

#ifndef DLP_COMMON_JSON_HH
#define DLP_COMMON_JSON_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.hh"

namespace dlp::json {

class Value;

/** Object member list; a vector keeps insertion order stable. */
using Members = std::vector<std::pair<std::string, Value>>;

/**
 * One JSON value in 56 bytes: a one-byte kind and number
 * representation, one 8-byte word shared by bool, double and exact
 * integer, and one variant for the three heap-backed kinds. Exported
 * documents hold hundreds of thousands of these, so the layout sets
 * how many bytes building, writing and freeing one touches.
 */
class Value
{
  public:
    enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

    /**
     * How a Kind::Number stores its exact value. Integer-built numbers
     * keep full 64-bit precision; asNumber() always works (nearest
     * double), the width-specific accessors are lossless.
     */
    enum class NumRep : uint8_t { Double, Int64, UInt64 };

    Value() : kind_(Kind::Null) {}
    Value(std::nullptr_t) : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Number), num_(d) {}
    Value(int i) : Value(int64_t(i)) {}
    Value(unsigned u) : Value(uint64_t(u)) {}
    Value(int64_t i)
        : kind_(Kind::Number), rep_(NumRep::Int64), int_(uint64_t(i)) {}
    Value(uint64_t u)
        : kind_(Kind::Number), rep_(NumRep::UInt64), int_(u) {}
    Value(const char *s) : kind_(Kind::String), data_(std::string(s)) {}
    Value(std::string s) : kind_(Kind::String), data_(std::move(s)) {}

    /** An empty array or object. */
    static Value
    array()
    {
        Value v;
        v.kind_ = Kind::Array;
        v.data_.emplace<Array>();
        return v;
    }

    static Value
    object()
    {
        Value v;
        v.kind_ = Kind::Object;
        v.data_.emplace<Members>();
        return v;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { check(Kind::Bool); return bool_; }

    double
    asNumber() const
    {
        check(Kind::Number);
        switch (rep_) {
          case NumRep::Int64: return double(int64_t(int_));
          case NumRep::UInt64: return double(int_);
          case NumRep::Double: break;
        }
        return num_;
    }

    NumRep numRep() const { check(Kind::Number); return rep_; }
    /**
     * The number as an exact unsigned/signed 64-bit integer. Exact
     * integer representations convert losslessly (with a range check
     * across signedness); a double-represented number must hold an
     * integral value in range. Panics otherwise.
     */
    uint64_t asUInt64() const;
    int64_t asInt64() const;

    const std::string &
    asString() const
    {
        check(Kind::String);
        return std::get<std::string>(data_);
    }

    /** Array access. */
    const std::vector<Value> &
    items() const
    {
        check(Kind::Array);
        return std::get<Array>(data_);
    }

    void
    push(Value v)
    {
        check(Kind::Array);
        std::get<Array>(data_).push_back(std::move(v));
    }

    const Value &at(size_t i) const;

    /** Object access. */
    const Members &
    members() const
    {
        check(Kind::Object);
        return std::get<Members>(data_);
    }

    /** Appends (or overwrites) a member, preserving first-set order. */
    void set(const std::string &key, Value v);
    /** The member's value; panics if the key is absent. */
    const Value &at(const std::string &key) const;
    /** Null if the key is absent. */
    const Value *find(const std::string &key) const;
    bool has(const std::string &key) const { return find(key) != nullptr; }

    size_t size() const;

    /**
     * Make room for n items (array) or members (object) up front, for
     * builders that know the count before they push or set.
     */
    void reserve(size_t n);

  private:
    using Array = std::vector<Value>;

    void
    check(Kind expected) const
    {
        panic_if(kind_ != expected, "json: value is not %s",
                 kindName(expected));
    }

    static const char *kindName(Kind k);

    Kind kind_;
    NumRep rep_ = NumRep::Double;
    union
    {
        bool bool_;
        double num_;
        uint64_t int_ = 0;  ///< exact payload when rep_ is Int64/UInt64
    };
    /// Holds the string, item or member list of those kinds; an empty
    /// string (no allocation) for null, bool and number.
    std::variant<std::string, Array, Members> data_;
};

/**
 * Serialize a document.
 *
 * @param indent spaces per nesting level; 0 emits a compact single line
 */
std::string write(const Value &v, unsigned indent = 2);

/** Parse a document; raises FatalError on malformed input. */
Value parse(const std::string &text);

} // namespace dlp::json

#endif // DLP_COMMON_JSON_HH
