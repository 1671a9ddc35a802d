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
 *  - one monotonic, chunked arena per document: array items, object
 *    members and string bytes are bump-allocated from the root's arena
 *    and freed with it at once. A value built standalone
 *    (Value::object(), Value::array(), a string, parse()) starts its
 *    own arena lazily; moving it into a parent with push() or set()
 *    splices that arena's chunks into the parent's, copying nothing.
 *    Copying a value deep-copies it into a fresh arena. Arenas are
 *    per document, with no shared state, so threads may build
 *    separate documents concurrently,
 *  - objects preserve insertion order, so exported documents have a
 *    stable, deterministic key ordering run to run. Member names are
 *    interned per arena, each stored once with its quoted, escaped
 *    form rendered for the writer,
 *  - a writer with optional pretty-printing; doubles are emitted via
 *    std::to_chars (shortest round-trippable form), numbers that hold
 *    exact integral values print without a decimal point, and exact
 *    64-bit integers print all their digits. It writes into output
 *    chunks that are never zero-filled (4 KiB doubling to 1 MiB) and
 *    joins them once into a string of the exact size, so a document's
 *    bytes are held at most twice and never in a doubled buffer;
 *    integers print through its own two-digits-per-step formatter
 *    (the same bytes as std::to_chars), and each line's newline and
 *    indent is one fixed-size copy,
 *  - a recursive-descent parser that raises FatalError, naming the
 *    byte offset, on malformed input: among others a number with a
 *    leading zero, a raw control byte inside a string, and a \u escape
 *    of a lone UTF-16 surrogate. A surrogate pair decodes to one 4-byte
 *    UTF-8 sequence.
 */

#ifndef DLP_COMMON_JSON_HH
#define DLP_COMMON_JSON_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace dlp::json {

class Member;
class Value;

namespace detail {

struct Arena;
class Parser;
class Writer;

/**
 * One interned member name: its raw bytes, then the same name as the
 * writer emits it, `"escaped": `. Lives in the arena that interned it.
 */
struct KeyEntry
{
    Arena *table;        ///< the arena whose key table holds it
    uint32_t size;       ///< raw bytes
    uint32_t rendered;   ///< rendered bytes, quotes, colon and space included

    const char *
    raw() const
    {
        return reinterpret_cast<const char *>(this + 1);
    }

    const char *text() const { return raw() + size; }
    std::string_view str() const { return {raw(), size}; }
};

} // namespace detail

/**
 * A member name interned in one document's arena (Value::intern).
 * Setting members through a Key skips hashing the name; builders that
 * set the same names on many objects intern them once. It stays valid
 * as long as the document that interned it lives.
 */
class Key
{
  public:
    std::string_view str() const { return entry_->str(); }

  private:
    friend class Value;
    explicit Key(const detail::KeyEntry *e) : entry_(e) {}

    const detail::KeyEntry *entry_;
};

/**
 * One JSON value in 32 bytes: a one-byte kind and number
 * representation, a count and capacity, one 8-byte word shared by
 * bool, double, exact integer and the pointer to string bytes, items
 * or members, and the arena that holds them. Exported documents hold
 * hundreds of thousands of these, so the layout sets how many bytes
 * building, writing and freeing one touches.
 *
 * A value is either a root, which owns its arena and frees it on
 * destruction, or a slot inside a document, whose storage the
 * document's arena owns; assigning to a slot moves the new value into
 * that document. Splicing moves no storage, so slots stay where they
 * are when their document moves into another. References that push()
 * and set() return stay valid until the next push() or set() on the
 * same container.
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

    Value() : int_(0) {}
    Value(std::nullptr_t) : Value() {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Number), num_(d) {}
    Value(int i) : Value(int64_t(i)) {}
    Value(unsigned u) : Value(uint64_t(u)) {}
    Value(int64_t i)
        : kind_(Kind::Number), rep_(NumRep::Int64), int_(uint64_t(i)) {}
    Value(uint64_t u)
        : kind_(Kind::Number), rep_(NumRep::UInt64), int_(u) {}
    Value(std::string_view s);
    Value(const char *s) : Value(std::string_view(s)) {}
    Value(const std::string &s) : Value(std::string_view(s)) {}

    /** A deep copy into a fresh arena. */
    Value(const Value &other);
    /**
     * Takes a root's arena; a slot's storage belongs to its document,
     * so moving from a slot copies it (and an allocation failure there
     * terminates).
     */
    Value(Value &&other) noexcept;
    Value &operator=(const Value &other) { return *this = Value(other); }
    Value &operator=(Value &&other) noexcept;
    ~Value()
    {
        if (root_ && arena_)
            release();
    }

    /** An empty array or object; its arena starts on first use. */
    static Value
    array()
    {
        Value v;
        v.kind_ = Kind::Array;
        return v;
    }

    static Value
    object()
    {
        Value v;
        v.kind_ = Kind::Object;
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

    /** The string's bytes, valid while this value is. */
    std::string_view
    asString() const
    {
        check(Kind::String);
        return {str_, size_};
    }

    /** Array access. */
    std::span<const Value>
    items() const
    {
        check(Kind::Array);
        return {items_, size_};
    }

    /** Appends an item; returns it, as a slot of this document. */
    Value &push(Value v);

    const Value &at(size_t i) const;

    /** Object access, in insertion order. */
    std::span<const Member> members() const;

    /**
     * Appends (or overwrites) a member, preserving first-set order;
     * returns the member's value, as a slot of this document.
     */
    Value &set(std::string_view key, Value v);
    Value &set(Key key, Value v);
    /** The member's value; panics if the key is absent. */
    const Value &at(std::string_view key) const;
    /** Null if the key is absent. */
    const Value *find(std::string_view key) const;
    bool has(std::string_view key) const { return find(key) != nullptr; }

    /**
     * Interns a member name in this array's or object's document, for
     * set(Key, ...) on any object of it.
     */
    Key intern(std::string_view name);

    size_t size() const;

    /**
     * Make room for n items (array) or members (object) up front, for
     * builders that know the count before they push or set.
     */
    void reserve(size_t n);

  private:
    friend class detail::Parser;
    friend class detail::Writer;

    void
    check(Kind expected) const
    {
        panic_if(kind_ != expected, "json: value is not %s",
                 kindName(expected));
    }

    static const char *kindName(Kind k);

    /** The arena of this container's document, started if need be. */
    detail::Arena *home();
    /** Takes v's contents, leaving it an empty null root. */
    void steal(Value &v);
    /** Moves root v into this slot of the document with arena `a`. */
    void place(Value &&v, detail::Arena *a);
    /** Copies src's tree into this slot, allocating from `a`. */
    void copyFrom(const Value &src, detail::Arena *a);
    /** Sets this null value to a string in its document's arena. */
    void assignString(std::string_view s);
    void grow(size_t n);
    void release();

    Kind kind_ = Kind::Null;
    NumRep rep_ = NumRep::Double;
    bool root_ = true;  ///< owns arena_; false for a slot in a document
    uint32_t size_ = 0; ///< string bytes, items or members
    uint32_t cap_ = 0;  ///< items or members the storage has room for
    union
    {
        bool bool_;
        double num_;
        uint64_t int_;  ///< exact payload when rep_ is Int64/UInt64
        const char *str_;
        Value *items_;
        Member *members_;
    };
    /// The arena holding this value's storage; null until a root
    /// container or string needs one.
    detail::Arena *arena_ = nullptr;
};

/** One object member: an interned name and its value. */
class Member
{
  public:
    std::string_view key() const { return key_->str(); }
    const Value &value() const { return value_; }

  private:
    friend class Value;
    friend class detail::Writer;
    Member() = default;

    const detail::KeyEntry *key_ = nullptr;
    Value value_;
};

inline std::span<const Member>
Value::members() const
{
    check(Kind::Object);
    return {members_, size_};
}

/**
 * A field-table visitor (the v of a visitFields(record, v)) that sets
 * obj[key] = field for every field the table visits.
 */
inline auto
fieldSetter(Value &obj)
{
    return [&obj](const char *key, const auto &f) { obj.set(key, f); };
}

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
