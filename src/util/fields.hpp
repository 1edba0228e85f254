// Journal field lists (DESIGN.md §13). A journaled type states its layout
// once, beside its members, in wire order (not always declaration order):
//   static void fields(auto& self, auto&& visit) { visit(self.a, self.b); }
// write() and read() both visit that list. A bool is a 0/1 byte; an enum a
// u8 no larger than `last_enumerator(E)`, declared beside it; an unsigned
// integer keeps its width (size_t is u64); a signed one is an i64 that must
// fit its field; double is f64; Date is its i64 day number, Ipv4 its u32;
// strings and vectors are a u32 count and the elements, maps a u32 count and
// key/value pairs with keys strictly ascending under the map's comparator,
// arrays the elements alone, pairs first then second. A type with its own
// codec (static encode/decode) is what that codec writes, and a list entry
// via<C>(x) is what C::encode / C::decode make of x. read() accepts only
// what write() produces and throws CodecError on anything else; a count is
// checked against the remaining input, at its element type's smallest wire
// form, before anything is allocated.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/date.hpp"
#include "util/ipv4.hpp"

namespace encdns::util {

template <typename C, typename T>
struct Via {
  using Coder = C;
  T& value;
};
template <typename C, typename T>
Via<C, T> via(T& value) { return {value}; }

namespace fields_detail {

template <typename T, template <typename...> typename Of>
inline constexpr bool kIs = false;
template <template <typename...> typename Of, typename... A>
inline constexpr bool kIs<Of<A...>, Of> = true;
template <typename T>
inline constexpr bool kIsArray = false;
template <typename E, std::size_t N>
inline constexpr bool kIsArray<std::array<E, N>> = true;
template <typename T>
concept OwnCodec = requires(ByteWriter& w, ByteReader& r, T& value) {
  T::encode(w, value);
  T::decode(r, value);
};

/// A true lower bound on a T's wire size (none for a type with its own codec).
template <typename T>
[[nodiscard]] std::size_t min_bytes() {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) return 1;
  else if constexpr (std::is_integral_v<T>) return std::is_signed_v<T> ? 8 : sizeof(T);
  else if constexpr (std::is_same_v<T, double> || std::is_same_v<T, Date>) return 8;
  else if constexpr (std::is_same_v<T, Ipv4> || std::is_same_v<T, std::string> ||
                     kIs<T, std::vector> || kIs<T, std::map>) return 4;
  else if constexpr (kIsArray<T>)
    return std::tuple_size_v<T> * min_bytes<typename T::value_type>();
  else if constexpr (kIs<T, std::pair>)
    return min_bytes<typename T::first_type>() + min_bytes<typename T::second_type>();
  else if constexpr (requires { typename T::Coder; })
    return min_bytes<std::remove_cvref_t<decltype(std::declval<T>().value)>>();
  else if constexpr (OwnCodec<T>) return 0;
  else {
    static const std::size_t total = [] {
      T probe{};
      std::size_t sum = 0;
      T::fields(probe, [&sum](auto&&... entry) {
        ((sum += min_bytes<std::remove_cvref_t<decltype(entry)>>()), ...);
      });
      return sum;
    }();
    return total;
  }
}

template <typename T>
void put(ByteWriter& w, const T& value) {
  if constexpr (std::is_same_v<T, bool>) w.boolean(value);
  else if constexpr (std::is_enum_v<T>) w.u8(static_cast<std::uint8_t>(value));
  else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) w.i64(value);
  else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) w.u8(value);
  else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) w.u16(value);
  else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) w.u32(value);
  else if constexpr (std::is_integral_v<T>) w.u64(value);
  else if constexpr (std::is_same_v<T, double>) w.f64(value);
  else if constexpr (std::is_same_v<T, Date>) w.i64(value.to_days());
  else if constexpr (std::is_same_v<T, Ipv4>) w.u32(value.value());
  else if constexpr (std::is_same_v<T, std::string>) w.str(value);
  else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) w.blob(value);
  else if constexpr (kIs<T, std::vector> || kIs<T, std::map>) {
    w.u32(static_cast<std::uint32_t>(value.size()));
    for (const auto& element : value) put(w, element);
  } else if constexpr (kIsArray<T>) {
    for (const auto& element : value) put(w, element);
  } else if constexpr (kIs<T, std::pair>) {
    put(w, value.first);
    put(w, value.second);
  } else if constexpr (requires { typename T::Coder; }) {
    T::Coder::encode(w, value.value);
  } else if constexpr (OwnCodec<T>) {
    T::encode(w, value);
  } else {
    T::fields(value, [&w](const auto&... entry) { (put(w, entry), ...); });
  }
}

template <typename T>
void get(ByteReader& r, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    value = r.boolean();
  } else if constexpr (std::is_enum_v<T>) {
    constexpr auto last = static_cast<std::uint8_t>(last_enumerator(T{}));
    const std::uint8_t byte = r.u8();
    if (byte > last)
      throw CodecError("fields: enum byte " + std::to_string(byte) +
                       " is past its last enumerator " + std::to_string(last));
    value = static_cast<T>(byte);
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    const std::int64_t wide = r.i64();
    if (!std::in_range<T>(wide))
      throw CodecError("fields: integer " + std::to_string(wide) +
                       " does not fit its " + std::to_string(8 * sizeof(T)) +
                       "-bit field");
    value = static_cast<T>(wide);
  } else if constexpr (std::is_same_v<T, Date>) {
    // Past ±2^38 days (~750 million years) Date's int year and its
    // conversion near overflow, so the range is checked before converting.
    const std::int64_t days = r.i64();
    constexpr std::int64_t kMaxDays = std::int64_t{1} << 38;
    if (days < -kMaxDays || days > kMaxDays ||
        Date::from_days(days).to_days() != days)
      throw CodecError("fields: day number " + std::to_string(days) +
                       " is out of range");
    value = Date::from_days(days);
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) value = r.u8();
  else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) value = r.u16();
  else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) value = r.u32();
  else if constexpr (std::is_integral_v<T>) value = r.u64();
  else if constexpr (std::is_same_v<T, double>) value = r.f64();
  else if constexpr (std::is_same_v<T, Ipv4>) value = Ipv4{r.u32()};
  else if constexpr (std::is_same_v<T, std::string>) value = r.str();
  else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) value = r.blob();
  else if constexpr (kIs<T, std::vector>) {
    const std::size_t min = min_bytes<typename T::value_type>();
    const std::uint32_t n = r.count(min);
    value.clear();
    if (min > 0) value.reserve(n);  // the count was checked against it
    for (std::uint32_t i = 0; i < n; ++i) get(r, value.emplace_back());
  } else if constexpr (kIs<T, std::map>) {
    using Key = typename T::key_type;
    using Mapped = typename T::mapped_type;
    const std::uint32_t n = r.count(min_bytes<Key>() + min_bytes<Mapped>());
    value.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      Key key{};
      get(r, key);
      if (!value.empty() && !value.key_comp()(value.rbegin()->first, key))
        throw CodecError("fields: map keys not strictly ascending");
      get(r, value.emplace_hint(value.end(), std::move(key), Mapped{})->second);
    }
  } else if constexpr (kIsArray<T>) {
    for (auto& element : value) get(r, element);
  } else if constexpr (kIs<T, std::pair>) {
    get(r, value.first);
    get(r, value.second);
  } else if constexpr (requires { typename T::Coder; }) {
    T::Coder::decode(r, value.value);
  } else if constexpr (OwnCodec<T>) {
    T::decode(r, value);
  } else {
    T::fields(value, [&r](auto&&... entry) { (get(r, entry), ...); });
  }
}

}  // namespace fields_detail

/// Appends each value's wire form.
template <typename... T>
void write(ByteWriter& w, const T&... values) {
  (fields_detail::put(w, values), ...);
}

/// Reads each value (or via entry) in place.
template <typename... T>
void read(ByteReader& r, T&&... values) {
  (fields_detail::get(r, values), ...);
}

/// `value` as a whole record, and a whole record as a T.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> encode(const T& value) {
  ByteWriter w;
  write(w, value);
  return w.take();
}
template <typename T>
[[nodiscard]] T decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  T value{};
  read(r, value);
  r.expect_done();
  return value;
}

}  // namespace encdns::util
