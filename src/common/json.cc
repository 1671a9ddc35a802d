#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace dlp::json {

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
    const Array &arr = items();
    panic_if(i >= arr.size(), "json: index %zu out of range (size %zu)",
             i, arr.size());
    return arr[i];
}

void
Value::set(const std::string &key, Value v)
{
    check(Kind::Object);
    Members &obj = std::get<Members>(data_);
    for (auto &m : obj) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    obj.emplace_back(key, std::move(v));
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &m : members())
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    panic_if(!v, "json: object has no member '%s'", key.c_str());
    return *v;
}

size_t
Value::size() const
{
    switch (kind_) {
      case Kind::Array: return std::get<Array>(data_).size();
      case Kind::Object: return std::get<Members>(data_).size();
      default: panic("json: value has no size");
    }
}

void
Value::reserve(size_t n)
{
    switch (kind_) {
      case Kind::Array: std::get<Array>(data_).reserve(n); break;
      case Kind::Object: std::get<Members>(data_).reserve(n); break;
      default: panic("json: only arrays and objects reserve room");
    }
}

namespace {

/**
 * Serializes a document into one growable buffer. Every item, member
 * and scalar makes one capacity check for the most bytes it can take
 * (a string as if each byte needed a \u escape), then writes through a
 * raw pointer.
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
    /// Longest escape of one string byte: \u00XX.
    static constexpr size_t maxEscape = 6;

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

    static bool
    needsEscape(char c)
    {
        return static_cast<unsigned char>(c) < 0x20 || c == '"' ||
               c == '\\';
    }

    /** Takes at most 2 + maxEscape * s.size() bytes. */
    void
    escaped(const std::string &s)
    {
        static constexpr char hex[] = "0123456789abcdef";
        put('"');
        const char *c = s.data();
        const char *end = c + s.size();
        while (c != end) {
            while (c != end && !needsEscape(*c))
                *p_++ = *c++;
            if (c == end)
                break;
            switch (*c) {
              case '"': put("\\\"", 2); break;
              case '\\': put("\\\\", 2); break;
              case '\n': put("\\n", 2); break;
              case '\r': put("\\r", 2); break;
              case '\t': put("\\t", 2); break;
              default:
                put("\\u00", 4);
                put(hex[static_cast<unsigned char>(*c) >> 4]);
                put(hex[*c & 0xf]);
            }
            ++c;
        }
        put('"');
    }

    /** Takes at most maxScalar bytes. */
    void
    number(const Value &v)
    {
        // Exact 64-bit integers print all their digits, no double detour.
        switch (v.numRep()) {
          case Value::NumRep::UInt64:
            p_ = std::to_chars(p_, end_, v.asUInt64()).ptr;
            return;
          case Value::NumRep::Int64:
            p_ = std::to_chars(p_, end_, v.asInt64()).ptr;
            return;
          case Value::NumRep::Double:
            break;
        }
        double d = v.asNumber();
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
        switch (v.kind()) {
          case Value::Kind::Null:
            put("null", 4);
            break;
          case Value::Kind::Bool:
            if (v.asBool())
                put("true", 4);
            else
                put("false", 5);
            break;
          case Value::Kind::Number:
            number(v);
            break;
          case Value::Kind::String: {
            const std::string &s = v.asString();
            reserve(2 + maxEscape * s.size());
            escaped(s);
            break;
          }
          case Value::Kind::Array: {
            const auto &items = v.items();
            if (items.empty()) {
                put("[]", 2);
                break;
            }
            put('[');
            for (size_t i = 0; i < items.size(); ++i) {
                reserve(1 + lineRoom(depth + 1) + maxScalar);
                if (i)
                    put(',');
                newline(depth + 1);
                value(items[i], depth + 1);
            }
            reserve(lineRoom(depth) + 1);
            newline(depth);
            put(']');
            break;
          }
          case Value::Kind::Object: {
            const auto &members = v.members();
            if (members.empty()) {
                put("{}", 2);
                break;
            }
            put('{');
            for (size_t i = 0; i < members.size(); ++i) {
                const auto &[key, child] = members[i];
                reserve(1 + lineRoom(depth + 1) + 2 +
                        maxEscape * key.size() + 2 + maxScalar);
                if (i)
                    put(',');
                newline(depth + 1);
                escaped(key);
                if (indent_)
                    put(": ", 2);
                else
                    put(':');
                value(child, depth + 1);
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

/** Recursive-descent parser over a complete in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    Value
    document()
    {
        Value v = value();
        skipWs();
        fail_if(pos != s.size(), "trailing characters after document");
        return v;
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

    Value
    value()
    {
        // Containers recurse back into value(); a hostile or corrupt
        // document of the form [[[[... would otherwise ride the call
        // stack to a segfault instead of a clean parse error.
        fail_if(depth >= maxDepth, "nesting deeper than 256 levels");
        ++depth;
        skipWs();
        Value v = [&] {
            switch (peek()) {
              case '{': return object();
              case '[': return array();
              case '"': return Value(string());
              case 't': literal("true"); return Value(true);
              case 'f': literal("false"); return Value(false);
              case 'n': literal("null"); return Value(nullptr);
              default: return number();
            }
        }();
        --depth;
        return v;
    }

    Value
    object()
    {
        expect('{', "expected '{'");
        Value obj = Value::object();
        skipWs();
        if (consume('}'))
            return obj;
        while (true) {
            skipWs();
            fail_if(peek() != '"', "expected object key");
            std::string key = string();
            skipWs();
            expect(':', "expected ':' after key");
            obj.set(key, value());
            skipWs();
            if (consume(','))
                continue;
            expect('}', "expected ',' or '}' in object");
            return obj;
        }
    }

    Value
    array()
    {
        expect('[', "expected '['");
        Value arr = Value::array();
        skipWs();
        if (consume(']'))
            return arr;
        while (true) {
            arr.push(value());
            skipWs();
            if (consume(','))
                continue;
            expect(']', "expected ',' or ']' in array");
            return arr;
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

    std::string
    string()
    {
        expect('"', "expected '\"'");
        std::string out;
        while (true) {
            fail_if(pos >= s.size(), "unterminated string");
            char c = s[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            fail_if(pos >= s.size(), "unterminated escape");
            char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
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
                appendUtf8(out, code);
                break;
              }
              default: fail("invalid escape character");
            }
        }
    }

    Value
    number()
    {
        size_t start = pos;
        bool negative = consume('-');
        bool integral = true;
        while (pos < s.size() &&
               ((s[pos] >= '0' && s[pos] <= '9') || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E' || s[pos] == '+' ||
                s[pos] == '-')) {
            if (s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E')
                integral = false;
            ++pos;
        }
        fail_if(pos == start, "expected a value");
        const char *first = s.data() + start;
        const char *last = s.data() + pos;
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
        fail_if(res.ec != std::errc() || res.ptr != last,
                "malformed number");
        return Value(d);
    }

    const std::string &s;
    size_t pos = 0;
    size_t depth = 0; ///< current container nesting inside value()
};

} // namespace

std::string
write(const Value &v, unsigned indent)
{
    return Writer(indent).document(v);
}

Value
parse(const std::string &text)
{
    return Parser(text).document();
}

} // namespace dlp::json
