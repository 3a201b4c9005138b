#pragma once

/**
 * @file
 * A minimal, dependency-free JSON value type for the serving layer.
 *
 * Design goals, in order:
 *
 *  1. **Canonical bytes.** `dump()` is deterministic: object members
 *     serialize in insertion order, numbers use the shortest
 *     round-trip form (std::to_chars), and there is no whitespace.
 *     Two semantically identical values built by the same code path
 *     therefore produce identical bytes — the property the daemon's
 *     "wire schedule equals in-process schedule byte-for-byte"
 *     contract rests on.
 *  2. **Typed failure.** `parse()` returns a StatusOr instead of
 *     throwing: a malformed request body is a kInvalidInput Status
 *     with the offset of the first bad byte, which the HTTP layer
 *     maps straight to a 400 with a structured error body.
 *  3. **Small surface.** One value type, one parser, one serializer.
 *     No SAX, no pointers-into-buffer, no allocator knobs.
 *
 * Integers and doubles are distinct kinds: `12` parses (and dumps) as
 * Int, `12.0` as Double. asDouble() widens an Int; asInt() on a
 * Double is only exact for integral values in range. NaN/Inf have no
 * JSON form and dump as `null` (the solver never ships them; see
 * validateSolveInputs).
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace cosa {
namespace json {

/** One JSON value (null / bool / int / double / string / array /
 *  object). Objects keep insertion order; duplicate keys overwrite in
 *  place (last value wins, position of the first occurrence). */
class Value
{
  public:
    enum class Kind { Null, Bool, Int, Double, String, Array, Object };

    /** Insertion-ordered member list (canonical serialization). */
    using Members = std::vector<std::pair<std::string, Value>>;

    Value() = default; //!< null
    /*implicit*/ Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    /*implicit*/ Value(std::int64_t i) : kind_(Kind::Int), int_(i) {}
    /*implicit*/ Value(int i)
        : kind_(Kind::Int), int_(static_cast<std::int64_t>(i))
    {
    }
    /*implicit*/ Value(double d) : kind_(Kind::Double), double_(d) {}
    /*implicit*/ Value(std::string s)
        : kind_(Kind::String), string_(std::move(s))
    {
    }
    /*implicit*/ Value(const char* s) : kind_(Kind::String), string_(s) {}

    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isDouble() const { return kind_ == Kind::Double; }
    /** Int or Double. */
    bool isNumber() const { return isInt() || isDouble(); }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    /** A Double truncates toward zero, saturating at the int64 range
     *  (NaN reads 0). Decoders of untrusted bodies should reject such
     *  values instead; the wire's request decoder does. */
    std::int64_t asInt() const;
    double asDouble() const
    {
        return isInt() ? static_cast<double>(int_) : double_;
    }
    const std::string& asString() const { return string_; }

    // --- array ---
    const std::vector<Value>& items() const { return items_; }
    std::size_t size() const
    {
        return isObject() ? members_.size() : items_.size();
    }
    void push(Value v)
    {
        kind_ = Kind::Array;
        items_.push_back(std::move(v));
    }

    // --- object ---
    const Members& members() const { return members_; }
    /** Insert or overwrite (insertion position kept on overwrite). */
    void set(std::string_view key, Value v);
    /** Member pointer or null; null for non-objects. */
    const Value* find(std::string_view key) const;

    // Typed member lookups with defaults, for request decoding: the
    // default is returned when the member is absent; a present member
    // of the wrong type is an error the caller detects via check().
    bool getBool(std::string_view key, bool fallback) const;
    std::int64_t getInt(std::string_view key, std::int64_t fallback) const;
    double getDouble(std::string_view key, double fallback) const;
    std::string getString(std::string_view key,
                          std::string_view fallback) const;

    /** Compact canonical serialization (see the file comment). */
    std::string dump() const;
    /** dump() appended to @p out (the building block). */
    void dumpTo(std::string& out) const;

    /**
     * Parse one JSON document. The whole input must be consumed
     * (trailing garbage is an error). Failure is kInvalidInput with
     * the byte offset of the problem. Nesting is limited to 96 levels
     * so hostile bodies cannot blow the stack.
     */
    static StatusOr<Value> parse(std::string_view text);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Value> items_;
    Members members_;
};

/** Append @p text JSON-escaped (quotes included) to @p out. */
void appendEscaped(std::string& out, std::string_view text);

/** Shortest round-trip form of @p value ("null" for NaN/Inf),
 *  appended to @p out. The one true double formatter of the wire. */
void appendDouble(std::string& out, double value);

} // namespace json
} // namespace cosa
