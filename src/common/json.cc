#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>

namespace dlp::json {

namespace detail {

namespace {

/// Longest escape of one string byte: \u00XX.
constexpr size_t maxEscape = 6;

bool
needsEscape(char c)
{
    return static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\';
}

/** Bytes quote() writes for s. */
size_t
quotedSize(std::string_view s)
{
    size_t n = 2;
    for (char c : s) {
        if (!needsEscape(c))
            n += 1;
        else if (c == '"' || c == '\\' || c == '\n' || c == '\r' ||
                 c == '\t')
            n += 2;
        else
            n += maxEscape;
    }
    return n;
}

/**
 * Writes s as a quoted JSON string at out and returns the end. Takes
 * at most 2 + maxEscape * s.size() bytes.
 */
char *
quote(char *out, std::string_view s)
{
    static constexpr char hex[] = "0123456789abcdef";
    *out++ = '"';
    const char *c = s.data();
    const char *end = c + s.size();
    while (c != end) {
        while (c != end && !needsEscape(*c))
            *out++ = *c++;
        if (c == end)
            break;
        switch (*c) {
          case '"': *out++ = '\\'; *out++ = '"'; break;
          case '\\': *out++ = '\\'; *out++ = '\\'; break;
          case '\n': *out++ = '\\'; *out++ = 'n'; break;
          case '\r': *out++ = '\\'; *out++ = 'r'; break;
          case '\t': *out++ = '\\'; *out++ = 't'; break;
          default:
            std::memcpy(out, "\\u00", 4);
            out[4] = hex[static_cast<unsigned char>(*c) >> 4];
            out[5] = hex[*c & 0xf];
            out += maxEscape;
        }
        ++c;
    }
    *out++ = '"';
    return out;
}

constexpr size_t
round8(size_t n)
{
    return (n + 7) & ~size_t(7);
}

} // namespace

/** A block of arena memory; its bytes follow the header. */
struct Chunk
{
    Chunk *next;
};

/**
 * One document's memory: a list of chunks, a bump pointer into the
 * current one, and the document's key table. The arena's own header
 * lives in its first chunk. Nothing in it is freed before the whole
 * list is, so a block a container outgrows stays readable.
 */
struct Arena
{
    /// Room of a container's first chunk; later chunks double up to
    /// maxChunk, which stays under glibc's default mmap threshold so
    /// freed chunks are reused from the heap.
    static constexpr size_t firstChunk = 1024;
    static constexpr size_t maxChunk = 64 * 1024;

    Arena *forward = nullptr;  ///< the arena this one was spliced into
    Chunk *first = nullptr;    ///< owned chunks, this header's first
    Chunk *last = nullptr;
    char *cur = nullptr;       ///< next free byte of the current chunk
    char *end = nullptr;
    size_t nextChunk = 2 * firstChunk;
    const KeyEntry **keys = nullptr;  ///< open-addressed, keyMask + 1 slots
    uint32_t keyMask = 0;
    uint32_t keyCount = 0;

    /** A new arena with room for `room` bytes in its first chunk. */
    static Arena *
    create(size_t room)
    {
        size_t bytes = sizeof(Chunk) + sizeof(Arena) + round8(room);
        Chunk *c = newChunk(bytes);
        Arena *a = ::new (static_cast<void *>(c + 1)) Arena;
        a->first = a->last = c;
        a->cur = reinterpret_cast<char *>(a + 1);
        a->end = reinterpret_cast<char *>(c) + bytes;
        return a;
    }

    static Chunk *
    newChunk(size_t bytes)
    {
        auto *c = static_cast<Chunk *>(std::malloc(bytes));
        if (!c)
            throw std::bad_alloc();
        c->next = nullptr;
        return c;
    }

    /** The arena at the end of this one's forwarding chain. */
    Arena *
    root()
    {
        Arena *a = this;
        while (a->forward)
            a = a->forward;
        return a;
    }

    void *
    alloc(size_t n)
    {
        n = round8(n);
        if (size_t(end - cur) < n)
            return allocSlow(n);
        void *p = cur;
        cur += n;
        return p;
    }

    void *
    allocSlow(size_t n)
    {
        if (n >= nextChunk) {
            // A block this large gets a chunk of its own; the current
            // chunk keeps its free room.
            Chunk *c = newChunk(sizeof(Chunk) + n);
            link(c);
            return c + 1;
        }
        Chunk *c = newChunk(sizeof(Chunk) + nextChunk);
        link(c);
        cur = reinterpret_cast<char *>(c + 1);
        end = cur + nextChunk;
        nextChunk = std::min(2 * nextChunk, maxChunk);
        void *p = cur;
        cur += n;
        return p;
    }

    void
    link(Chunk *c)
    {
        last->next = c;
        last = c;
    }

    /**
     * Grows the block p of oldBytes (keep of them in use) to newBytes:
     * in place when it is the newest block and the chunk has room,
     * else by copying into a new block.
     */
    void *
    extend(void *p, size_t oldBytes, size_t keep, size_t newBytes)
    {
        char *block = static_cast<char *>(p);
        size_t more = round8(newBytes) - round8(oldBytes);
        if (block && block + round8(oldBytes) == cur &&
            size_t(end - cur) >= more) {
            cur += more;
            return p;
        }
        void *q = alloc(newBytes);
        if (keep)
            std::memcpy(q, p, keep);
        return q;
    }

    /** Takes over child's chunks; child forwards here from now on. */
    void
    splice(Arena *child)
    {
        link(child->first);
        last = child->last;
        child->first = child->last = nullptr;
        child->forward = this;
    }

    const KeyEntry *
    intern(std::string_view name)
    {
        if (2 * (keyCount + 1) > keyMask + 1)
            growKeys();
        size_t i = std::hash<std::string_view>{}(name) & keyMask;
        for (;; i = (i + 1) & keyMask) {
            const KeyEntry *e = keys[i];
            if (!e)
                break;
            if (e->str() == name)
                return e;
        }
        panic_if(name.size() > UINT32_MAX, "json: key too long");
        size_t rendered = quotedSize(name) + 2;
        auto *e = static_cast<KeyEntry *>(
            alloc(sizeof(KeyEntry) + name.size() + rendered));
        e->table = this;
        e->size = uint32_t(name.size());
        e->rendered = uint32_t(rendered);
        char *raw = reinterpret_cast<char *>(e + 1);
        std::copy(name.begin(), name.end(), raw);
        char *text = quote(raw + name.size(), name);
        text[0] = ':';
        text[1] = ' ';
        keys[i] = e;
        ++keyCount;
        return e;
    }

    void
    growKeys()
    {
        size_t slots = keys ? 2 * (size_t(keyMask) + 1) : 16;
        auto **table = static_cast<const KeyEntry **>(
            alloc(slots * sizeof(const KeyEntry *)));
        std::fill_n(table, slots, nullptr);
        for (size_t i = 0; keys && i <= keyMask; ++i) {
            if (!keys[i])
                continue;
            size_t j = std::hash<std::string_view>{}(keys[i]->str()) &
                       (slots - 1);
            while (table[j])
                j = (j + 1) & (slots - 1);
            table[j] = keys[i];
        }
        keys = table;
        keyMask = uint32_t(slots - 1);
    }

    /** Frees every chunk, this header's included. */
    void
    release()
    {
        Chunk *c = first;
        while (c) {
            Chunk *next = c->next;
            std::free(c);
            c = next;
        }
    }
};

} // namespace detail

using detail::Arena;

namespace {

/** Two interned keys name the same member. */
bool
sameKey(const detail::KeyEntry *a, const detail::KeyEntry *b)
{
    // One table never holds a name twice; keys from two tables (a
    // value built standalone, then spliced in) compare by bytes.
    return a == b || (a->table != b->table && a->str() == b->str());
}

/** An arena for a copy of o, or null if o has no storage to copy. */
Arena *
arenaFor(const Value &o)
{
    bool storage = (o.isString() && !o.asString().empty()) ||
                   ((o.isArray() || o.isObject()) && o.size() > 0);
    return storage ? Arena::create(Arena::firstChunk) : nullptr;
}

} // namespace

Value::Value(std::string_view s) : Value()
{
    assignString(s);
}

Value::Value(const Value &other)
{
    copyFrom(other, arena_ = arenaFor(other));
}

Value::Value(Value &&other) noexcept
{
    if (other.root_)
        steal(other);
    else
        copyFrom(other, arena_ = arenaFor(other));
}

Value &
Value::operator=(Value &&other) noexcept
{
    if (this == &other)
        return *this;
    // Take other first: it may live in the arena this root frees.
    Value v(std::move(other));
    if (!root_) {
        place(std::move(v), arena_);
        return *this;
    }
    if (arena_)
        release();
    steal(v);
    return *this;
}

void
Value::steal(Value &v)
{
    kind_ = v.kind_;
    rep_ = v.rep_;
    size_ = v.size_;
    cap_ = v.cap_;
    int_ = v.int_;
    arena_ = v.arena_;
    v.kind_ = Kind::Null;
    v.size_ = v.cap_ = 0;
    v.arena_ = nullptr;
}

void
Value::release()
{
    arena_->release();
    arena_ = nullptr;
}

detail::Arena *
Value::home()
{
    if (!arena_)
        arena_ = Arena::create(Arena::firstChunk);
    else if (arena_->forward)
        arena_ = arena_->root();
    return arena_;
}

void
Value::place(Value &&v, detail::Arena *a)
{
    if (v.arena_) {
        a = a->root();
        panic_if(v.arena_ == a, "json: a document cannot hold itself");
        a->splice(v.arena_);
    }
    steal(v);
    root_ = false;
    arena_ = a;
}

void
Value::copyFrom(const Value &src, detail::Arena *a)
{
    kind_ = src.kind_;
    rep_ = src.rep_;
    int_ = src.int_;
    size_ = cap_ = 0;
    switch (kind_) {
      case Kind::String: {
        str_ = "";
        if (!src.size_)
            break;
        char *p = static_cast<char *>(a->alloc(src.size_));
        std::memcpy(p, src.str_, src.size_);
        str_ = p;
        size_ = src.size_;
        break;
      }
      case Kind::Array:
        items_ = nullptr;
        if (!src.size_)
            break;
        items_ = static_cast<Value *>(a->alloc(src.size_ * sizeof(Value)));
        for (; size_ < src.size_; ++size_) {
            Value *item = ::new (static_cast<void *>(items_ + size_)) Value;
            item->root_ = false;
            item->arena_ = a;
            item->copyFrom(src.items_[size_], a);
        }
        cap_ = size_;
        break;
      case Kind::Object:
        members_ = nullptr;
        if (!src.size_)
            break;
        members_ =
            static_cast<Member *>(a->alloc(src.size_ * sizeof(Member)));
        for (; size_ < src.size_; ++size_) {
            Member *m = ::new (static_cast<void *>(members_ + size_)) Member;
            const Member &from = src.members_[size_];
            m->key_ = a->intern(from.key());
            m->value_.root_ = false;
            m->value_.arena_ = a;
            m->value_.copyFrom(from.value_, a);
        }
        cap_ = size_;
        break;
      default:
        break;
    }
}

void
Value::assignString(std::string_view s)
{
    kind_ = Kind::String;
    str_ = "";
    size_ = 0;
    if (s.empty())
        return;
    panic_if(s.size() > UINT32_MAX, "json: string too long");
    // A standalone string's arena holds just its bytes.
    if (!arena_)
        arena_ = Arena::create(s.size());
    char *p = static_cast<char *>(home()->alloc(s.size()));
    std::memcpy(p, s.data(), s.size());
    str_ = p;
    size_ = uint32_t(s.size());
}

const char *
Value::kindName(Kind k)
{
    switch (k) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

uint64_t
Value::asUInt64() const
{
    check(Kind::Number);
    switch (rep_) {
      case NumRep::UInt64:
        return int_;
      case NumRep::Int64:
        panic_if(int64_t(int_) < 0, "json: number %lld is negative",
                 (long long)int64_t(int_));
        return int_;
      case NumRep::Double:
        break;
    }
    // 2^64 is the first double at or past the unsigned range.
    panic_if(!(num_ >= 0.0 && num_ < 18446744073709551616.0 &&
               std::nearbyint(num_) == num_),
             "json: number %g is not an exact uint64", num_);
    return uint64_t(num_);
}

int64_t
Value::asInt64() const
{
    check(Kind::Number);
    switch (rep_) {
      case NumRep::Int64:
        return int64_t(int_);
      case NumRep::UInt64:
        panic_if(int_ > uint64_t(INT64_MAX),
                 "json: number %llu overflows int64",
                 (unsigned long long)int_);
        return int64_t(int_);
      case NumRep::Double:
        break;
    }
    panic_if(!(num_ >= -9223372036854775808.0 &&
               num_ < 9223372036854775808.0 &&
               std::nearbyint(num_) == num_),
             "json: number %g is not an exact int64", num_);
    return int64_t(num_);
}

const Value &
Value::at(size_t i) const
{
    auto arr = items();
    panic_if(i >= arr.size(), "json: index %zu out of range (size %zu)",
             i, arr.size());
    return arr[i];
}

Value &
Value::push(Value v)
{
    check(Kind::Array);
    if (size_ == cap_)
        grow(size_ + 1);
    Value *slot = ::new (static_cast<void *>(items_ + size_)) Value;
    ++size_;
    slot->place(std::move(v), arena_);
    return *slot;
}

Key
Value::intern(std::string_view name)
{
    panic_if(kind_ != Kind::Array && kind_ != Kind::Object,
             "json: only arrays and objects intern keys");
    return Key(home()->intern(name));
}

Value &
Value::set(std::string_view key, Value v)
{
    check(Kind::Object);
    return set(Key(home()->intern(key)), std::move(v));
}

Value &
Value::set(Key key, Value v)
{
    check(Kind::Object);
    const detail::KeyEntry *k = key.entry_;
    // A key of another document would dangle once that one is freed.
    if (k->table->root() != home())
        k = arena_->intern(k->str());
    for (uint32_t i = 0; i < size_; ++i) {
        Member &m = members_[i];
        if (sameKey(m.key_, k)) {
            m.value_ = std::move(v);
            return m.value_;
        }
    }
    if (size_ == cap_)
        grow(size_ + 1);
    Member *m = ::new (static_cast<void *>(members_ + size_)) Member;
    ++size_;
    m->key_ = k;
    m->value_.place(std::move(v), arena_);
    return m->value_;
}

const Value *
Value::find(std::string_view key) const
{
    for (const Member &m : members())
        if (m.key() == key)
            return &m.value_;
    return nullptr;
}

const Value &
Value::at(std::string_view key) const
{
    const Value *v = find(key);
    panic_if(!v, "json: object has no member '%.*s'", int(key.size()),
             key.data());
    return *v;
}

size_t
Value::size() const
{
    panic_if(kind_ != Kind::Array && kind_ != Kind::Object,
             "json: value has no size");
    return size_;
}

void
Value::reserve(size_t n)
{
    panic_if(kind_ != Kind::Array && kind_ != Kind::Object,
             "json: only arrays and objects reserve room");
    if (n > cap_)
        grow(n);
}

void
Value::grow(size_t n)
{
    size_t want = std::max({n, 2 * size_t(cap_), size_t(4)});
    panic_if(want > UINT32_MAX, "json: container too large");
    size_t each = kind_ == Kind::Array ? sizeof(Value) : sizeof(Member);
    void *old = kind_ == Kind::Array ? static_cast<void *>(items_)
                                     : static_cast<void *>(members_);
    void *p = home()->extend(old, cap_ * each, size_ * each, want * each);
    if (kind_ == Kind::Array)
        items_ = static_cast<Value *>(p);
    else
        members_ = static_cast<Member *>(p);
    cap_ = uint32_t(want);
}

namespace detail {

/**
 * Serializes a document into one growable buffer. Every item, member
 * and scalar makes one capacity check for the most bytes it can take
 * (a string as if each byte needed a \u escape), then writes through a
 * raw pointer. Member names are copied pre-rendered from their keys.
 */
class Writer
{
  public:
    explicit Writer(unsigned indent) : indent_(indent) {}

    std::string
    document(const Value &v)
    {
        reserve(maxScalar);
        value(v, 0);
        if (indent_) {
            reserve(1);
            put('\n');
        }
        buf_.resize(size_t(p_ - buf_.data()));
        return std::move(buf_);
    }

  private:
    /// Longest scalar; "-2.2250738585072014e-308" is 24 bytes.
    static constexpr size_t maxScalar = 32;

    void
    reserve(size_t n)
    {
        if (size_t(end_ - p_) < n)
            grow(n);
    }

    void
    grow(size_t n)
    {
        size_t used = size_t(p_ - buf_.data());
        buf_.resize(std::max(2 * buf_.size(), used + n));
        p_ = buf_.data() + used;
        end_ = buf_.data() + buf_.size();
    }

    void put(char c) { *p_++ = c; }

    void
    put(const char *s, size_t n)
    {
        std::memcpy(p_, s, n);
        p_ += n;
    }

    /** Room a newline() to `level` takes. */
    size_t
    lineRoom(unsigned level) const
    {
        return indent_ ? 1 + size_t(indent_) * level : 0;
    }

    void
    newline(unsigned level)
    {
        if (!indent_)
            return;
        *p_++ = '\n';
        size_t n = size_t(indent_) * level;
        std::memset(p_, ' ', n);
        p_ += n;
    }

    /** Takes at most maxScalar bytes. */
    void
    number(const Value &v)
    {
        // Exact 64-bit integers print all their digits, no double detour.
        switch (v.rep_) {
          case Value::NumRep::UInt64:
            p_ = std::to_chars(p_, end_, v.int_).ptr;
            return;
          case Value::NumRep::Int64:
            p_ = std::to_chars(p_, end_, int64_t(v.int_)).ptr;
            return;
          case Value::NumRep::Double:
            break;
        }
        double d = v.num_;
        // JSON has no NaN/Inf; null is the conventional stand-in.
        if (!std::isfinite(d)) {
            put("null", 4);
            return;
        }
        // Exact integral values print without a decimal point so counters
        // read as the integers they are (2^53 bounds exact representation).
        // Below that bound the int64 conversion is defined, and it
        // round-trips exactly when d is integral (-0.0 prints as 0).
        if (std::fabs(d) < 9.0e15 && double(int64_t(d)) == d) {
            p_ = std::to_chars(p_, end_, int64_t(d)).ptr;
            return;
        }
        p_ = std::to_chars(p_, end_, d).ptr;
    }

    /** Writes v; the caller has made room for a scalar. */
    void
    value(const Value &v, unsigned depth)
    {
        switch (v.kind_) {
          case Value::Kind::Null:
            put("null", 4);
            break;
          case Value::Kind::Bool:
            if (v.bool_)
                put("true", 4);
            else
                put("false", 5);
            break;
          case Value::Kind::Number:
            number(v);
            break;
          case Value::Kind::String:
            reserve(2 + maxEscape * v.size_);
            p_ = quote(p_, {v.str_, v.size_});
            break;
          case Value::Kind::Array: {
            if (!v.size_) {
                put("[]", 2);
                break;
            }
            put('[');
            for (uint32_t i = 0; i < v.size_; ++i) {
                reserve(1 + lineRoom(depth + 1) + maxScalar);
                if (i)
                    put(',');
                newline(depth + 1);
                value(v.items_[i], depth + 1);
            }
            reserve(lineRoom(depth) + 1);
            newline(depth);
            put(']');
            break;
          }
          case Value::Kind::Object: {
            if (!v.size_) {
                put("{}", 2);
                break;
            }
            put('{');
            for (uint32_t i = 0; i < v.size_; ++i) {
                const Member &m = v.members_[i];
                // The rendered key ends in ": "; one line drops the space.
                size_t keyBytes = m.key_->rendered - (indent_ ? 0 : 1);
                reserve(1 + lineRoom(depth + 1) + keyBytes + maxScalar);
                if (i)
                    put(',');
                newline(depth + 1);
                put(m.key_->text(), keyBytes);
                value(m.value_, depth + 1);
            }
            reserve(lineRoom(depth) + 1);
            newline(depth);
            put('}');
            break;
          }
        }
    }

    unsigned indent_;  ///< spaces per nesting level; 0 = one line
    std::string buf_;  ///< written bytes, then unused capacity
    char *p_ = buf_.data();   ///< next byte to write
    char *end_ = buf_.data(); ///< end of the capacity
};

/**
 * Recursive-descent parser over a complete in-memory document. It
 * builds each value in place, in the slot the document gives it.
 */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    Value
    document()
    {
        Value doc;
        value(doc);
        skipWs();
        fail_if(pos != s.size(), "trailing characters after document");
        return doc;
    }

  private:
    [[noreturn]] void
    failAt(size_t offset, const char *what)
    {
        fatal("json: parse error at offset %zu: %s", offset, what);
    }

    [[noreturn]] void fail(const char *what) { failAt(pos, what); }

    void
    fail_if(bool cond, const char *what)
    {
        if (cond)
            fail(what);
    }

    /// Maximum container nesting before the parser bails out.
    static constexpr size_t maxDepth = 256;

    void
    skipWs()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                                  s[pos] == '\n' || s[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        fail_if(pos >= s.size(), "unexpected end of input");
        return s[pos];
    }

    void
    expect(char c, const char *what)
    {
        fail_if(pos >= s.size() || s[pos] != c, what);
        ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p)
            fail_if(pos >= s.size() || s[pos++] != *p, "invalid literal");
    }

    void
    value(Value &slot)
    {
        // Containers recurse back into value(); a hostile or corrupt
        // document of the form [[[[... would otherwise ride the call
        // stack to a segfault instead of a clean parse error.
        fail_if(depth >= maxDepth, "nesting deeper than 256 levels");
        ++depth;
        skipWs();
        switch (peek()) {
          case '{': object(slot); break;
          case '[': array(slot); break;
          case '"': slot.assignString(string()); break;
          case 't': literal("true"); slot = true; break;
          case 'f': literal("false"); slot = false; break;
          case 'n': literal("null"); slot = nullptr; break;
          default: slot = number(); break;
        }
        --depth;
    }

    void
    object(Value &obj)
    {
        expect('{', "expected '{'");
        obj = Value::object();
        skipWs();
        if (consume('}'))
            return;
        while (true) {
            skipWs();
            fail_if(peek() != '"', "expected object key");
            Key key = obj.intern(string());
            skipWs();
            expect(':', "expected ':' after key");
            value(obj.set(key, Value()));
            skipWs();
            if (consume(','))
                continue;
            expect('}', "expected ',' or '}' in object");
            return;
        }
    }

    void
    array(Value &arr)
    {
        expect('[', "expected '['");
        arr = Value::array();
        skipWs();
        if (consume(']'))
            return;
        while (true) {
            value(arr.push(Value()));
            skipWs();
            if (consume(','))
                continue;
            expect(']', "expected ',' or ']' in array");
            return;
        }
    }

    /** The four hex digits of a \u escape, as a UTF-16 code unit. */
    unsigned
    hex4()
    {
        fail_if(pos + 4 > s.size(), "truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            char h = s[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= unsigned(h - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return code;
    }

    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += char(code);
        } else if (code < 0x800) {
            out += char(0xc0 | (code >> 6));
            out += char(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            out += char(0xe0 | (code >> 12));
            out += char(0x80 | ((code >> 6) & 0x3f));
            out += char(0x80 | (code & 0x3f));
        } else {
            out += char(0xf0 | (code >> 18));
            out += char(0x80 | ((code >> 12) & 0x3f));
            out += char(0x80 | ((code >> 6) & 0x3f));
            out += char(0x80 | (code & 0x3f));
        }
    }

    /** The decoded string, valid until the next call. */
    std::string_view
    string()
    {
        expect('"', "expected '\"'");
        buf.clear();
        while (true) {
            size_t run = pos;
            while (run < s.size() && s[run] != '"' && s[run] != '\\' &&
                   static_cast<unsigned char>(s[run]) >= 0x20)
                ++run;
            buf.append(s, pos, run - pos);
            pos = run;
            fail_if(pos >= s.size(), "unterminated string");
            char c = s[pos++];
            if (c == '"')
                return buf;
            if (c != '\\')
                failAt(pos - 1, "raw control character in string");
            fail_if(pos >= s.size(), "unterminated escape");
            char e = s[pos++];
            switch (e) {
              case '"': buf += '"'; break;
              case '\\': buf += '\\'; break;
              case '/': buf += '/'; break;
              case 'b': buf += '\b'; break;
              case 'f': buf += '\f'; break;
              case 'n': buf += '\n'; break;
              case 'r': buf += '\r'; break;
              case 't': buf += '\t'; break;
              case 'u': {
                size_t at = pos - 2;  // the backslash
                unsigned code = hex4();
                if (code >= 0xdc00 && code <= 0xdfff)
                    failAt(at, "lone low surrogate");
                if (code >= 0xd800 && code <= 0xdbff) {
                    // A high half must be followed by an escaped low
                    // half; the pair encodes one code point past U+FFFF.
                    if (pos + 2 > s.size() || s[pos] != '\\' ||
                        s[pos + 1] != 'u')
                        failAt(at, "lone high surrogate");
                    pos += 2;
                    unsigned low = hex4();
                    if (low < 0xdc00 || low > 0xdfff)
                        failAt(at, "lone high surrogate");
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                appendUtf8(buf, code);
                break;
              }
              default: fail("invalid escape character");
            }
        }
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    /**
     * RFC 8259's number grammar over [first, last):
     * -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. Null if the token
     * matches, else what is wrong with it.
     */
    static const char *
    numberError(const char *p, const char *last)
    {
        auto digits = [&] {
            const char *from = p;
            while (p != last && isDigit(*p))
                ++p;
            return p != from;
        };
        if (p != last && *p == '-')
            ++p;
        if (p != last && *p == '0' && p + 1 != last && isDigit(p[1]))
            return "leading zero in number";
        if (!digits())
            return "malformed number";
        if (p != last && *p == '.') {
            ++p;
            if (!digits())
                return "malformed number";
        }
        if (p != last && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p != last && (*p == '+' || *p == '-'))
                ++p;
            if (!digits())
                return "malformed number";
        }
        return p == last ? nullptr : "malformed number";
    }

    Value
    number()
    {
        size_t start = pos;
        bool negative = consume('-');
        bool integral = true;
        while (pos < s.size() &&
               (isDigit(s[pos]) || s[pos] == '.' || s[pos] == 'e' ||
                s[pos] == 'E' || s[pos] == '+' || s[pos] == '-')) {
            if (s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E')
                integral = false;
            ++pos;
        }
        fail_if(pos == start, "expected a value");
        const char *first = s.data() + start;
        const char *last = s.data() + pos;
        if (const char *error = numberError(first, last))
            failAt(start, error);
        if (integral) {
            // Restore an integer literal exactly; only a literal that
            // overflows 64 bits falls back to the double path below.
            if (negative) {
                int64_t i = 0;
                auto res = std::from_chars(first, last, i);
                if (res.ec == std::errc() && res.ptr == last)
                    return Value(i);
            } else {
                uint64_t u = 0;
                auto res = std::from_chars(first, last, u);
                if (res.ec == std::errc() && res.ptr == last)
                    return Value(u);
            }
        }
        double d = 0;
        auto res = std::from_chars(first, last, d);
        if (res.ec != std::errc() || res.ptr != last)
            failAt(start, "malformed number");
        return Value(d);
    }

    const std::string &s;
    size_t pos = 0;
    size_t depth = 0; ///< current container nesting inside value()
    std::string buf;  ///< the string being decoded
};

} // namespace detail

std::string
write(const Value &v, unsigned indent)
{
    return detail::Writer(indent).document(v);
}

Value
parse(const std::string &text)
{
    return detail::Parser(text).document();
}

} // namespace dlp::json
