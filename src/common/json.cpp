#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace cosa {
namespace json {

// --- serialization -------------------------------------------------------

void
appendEscaped(std::string& out, std::string_view text)
{
    out.push_back('"');
    for (unsigned char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
}

void
appendDouble(std::string& out, double value)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    char buf[32];
    const auto [end, ec] =
        std::to_chars(buf, buf + sizeof(buf), value);
    (void)ec; // 32 bytes always fit the shortest round-trip form
    out.append(buf, end);
}

void
Value::dumpTo(std::string& out) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        return;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        return;
      case Kind::Int: {
        char buf[24];
        const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), int_);
        (void)ec;
        out.append(buf, end);
        return;
      }
      case Kind::Double:
        appendDouble(out, double_);
        return;
      case Kind::String:
        appendEscaped(out, string_);
        return;
      case Kind::Array: {
        out.push_back('[');
        bool first = true;
        for (const Value& item : items_) {
            if (!first)
                out.push_back(',');
            first = false;
            item.dumpTo(out);
        }
        out.push_back(']');
        return;
      }
      case Kind::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto& [key, value] : members_) {
            if (!first)
                out.push_back(',');
            first = false;
            appendEscaped(out, key);
            out.push_back(':');
            value.dumpTo(out);
        }
        out.push_back('}');
        return;
      }
    }
}

std::string
Value::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

// --- object access -------------------------------------------------------

void
Value::set(std::string_view key, Value v)
{
    kind_ = Kind::Object;
    for (auto& [existing, value] : members_) {
        if (existing == key) {
            value = std::move(v);
            return;
        }
    }
    members_.emplace_back(std::string(key), std::move(v));
}

const Value*
Value::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const auto& [existing, value] : members_) {
        if (existing == key)
            return &value;
    }
    return nullptr;
}

std::int64_t
Value::asInt() const
{
    if (!isDouble())
        return int_;
    // 2^63 is exact as a double; the cast is only defined below it.
    constexpr double kTwo63 = 9223372036854775808.0;
    if (double_ >= kTwo63)
        return std::numeric_limits<std::int64_t>::max();
    if (double_ < -kTwo63)
        return std::numeric_limits<std::int64_t>::min();
    return double_ == double_ ? static_cast<std::int64_t>(double_) : 0;
}

bool
Value::getBool(std::string_view key, bool fallback) const
{
    const Value* v = find(key);
    return v && v->isBool() ? v->asBool() : fallback;
}

std::int64_t
Value::getInt(std::string_view key, std::int64_t fallback) const
{
    const Value* v = find(key);
    return v && v->isNumber() ? v->asInt() : fallback;
}

double
Value::getDouble(std::string_view key, double fallback) const
{
    const Value* v = find(key);
    return v && v->isNumber() ? v->asDouble() : fallback;
}

std::string
Value::getString(std::string_view key, std::string_view fallback) const
{
    const Value* v = find(key);
    return v && v->isString() ? v->asString() : std::string(fallback);
}

// --- parser --------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 96;

/** Recursive-descent parser over a string_view; never throws. */
struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    Status fault; //!< first error; parsing stops once set

    bool ok() const { return fault.ok(); }

    void
    fail(const std::string& what)
    {
        if (fault.ok())
            fault = {ErrorCode::kInvalidInput,
                     what + " at byte " + std::to_string(pos)};
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    consumeWord(std::string_view word)
    {
        if (text.substr(pos, word.size()) == word) {
            pos += word.size();
            return true;
        }
        return false;
    }

    Value
    parseValue(int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return Value();
        }
        skipSpace();
        if (pos >= text.size()) {
            fail("unexpected end of input");
            return Value();
        }
        const char c = text[pos];
        if (c == '{')
            return parseObject(depth);
        if (c == '[')
            return parseArray(depth);
        if (c == '"')
            return Value(parseString());
        if (consumeWord("true"))
            return Value(true);
        if (consumeWord("false"))
            return Value(false);
        if (consumeWord("null"))
            return Value();
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber();
        fail("unexpected character");
        return Value();
    }

    Value
    parseObject(int depth)
    {
        Value obj = Value::object();
        ++pos; // '{'
        skipSpace();
        if (consume('}'))
            return obj;
        for (;;) {
            skipSpace();
            if (pos >= text.size() || text[pos] != '"') {
                fail("expected object key");
                return obj;
            }
            std::string key = parseString();
            if (!ok())
                return obj;
            skipSpace();
            if (!consume(':')) {
                fail("expected ':'");
                return obj;
            }
            obj.set(key, parseValue(depth + 1));
            if (!ok())
                return obj;
            skipSpace();
            if (consume(','))
                continue;
            if (consume('}'))
                return obj;
            fail("expected ',' or '}'");
            return obj;
        }
    }

    Value
    parseArray(int depth)
    {
        Value arr = Value::array();
        ++pos; // '['
        skipSpace();
        if (consume(']'))
            return arr;
        for (;;) {
            arr.push(parseValue(depth + 1));
            if (!ok())
                return arr;
            skipSpace();
            if (consume(','))
                continue;
            if (consume(']'))
                return arr;
            fail("expected ',' or ']'");
            return arr;
        }
    }

    std::string
    parseString()
    {
        std::string out;
        ++pos; // '"'
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
                return out;
            }
            if (c != '\\') {
                out.push_back(c);
                ++pos;
                continue;
            }
            ++pos; // backslash
            if (pos >= text.size())
                break;
            const char esc = text[pos++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos + 4 > text.size()) {
                    fail("truncated \\u escape");
                    return out;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos + static_cast<std::size_t>(i)];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail("bad \\u escape");
                        return out;
                    }
                }
                pos += 4;
                // UTF-8 encode the BMP code point (surrogate pairs in
                // request bodies are out of scope for this wire; the
                // escape decodes to its raw code units).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                fail("unknown escape");
                return out;
            }
        }
        fail("unterminated string");
        return out;
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos;
        if (consume('-')) {
        }
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
        bool is_double = false;
        if (pos < text.size() && text[pos] == '.') {
            is_double = true;
            ++pos;
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            is_double = true;
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        const std::string_view token = text.substr(start, pos - start);
        if (!is_double) {
            std::int64_t i = 0;
            const auto [ptr, ec] =
                std::from_chars(token.begin(), token.end(), i);
            if (ec == std::errc() && ptr == token.end())
                return Value(i);
            // Out-of-range integers widen to double below.
        }
        double d = 0.0;
        const auto [ptr, ec] =
            std::from_chars(token.begin(), token.end(), d);
        if (ec != std::errc() || ptr != token.end()) {
            pos = start;
            fail("malformed number");
            return Value();
        }
        return Value(d);
    }
};

} // namespace

StatusOr<Value>
Value::parse(std::string_view text)
{
    Parser parser{text, 0, Status::Ok()};
    Value value = parser.parseValue(0);
    if (parser.ok()) {
        parser.skipSpace();
        if (parser.pos != text.size())
            parser.fail("trailing garbage");
    }
    if (!parser.ok())
        return parser.fault;
    return value;
}

} // namespace json
} // namespace cosa
