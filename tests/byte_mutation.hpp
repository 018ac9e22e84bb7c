#pragma once
// Seeded byte mutations for the malformed-input tests: each call damages one
// copy of a valid input with a bit flip, an inserted byte, a deleted byte or
// a truncation.  A fixed seed makes every run feed the same mutants.

#include <cstddef>
#include <random>
#include <string>
#include <string_view>

namespace tpcool::test {

/// `good` with one random edit.  Inserted bytes are half random, half drawn
/// from the characters that carry structure in the inputs under test, so
/// mutants reach past the first parse check.
inline std::string mutate_bytes(const std::string& good, std::mt19937_64& rng) {
  constexpr std::string_view kStructural = "{}[],:\".-+e0123456789";
  std::string text = good;
  const std::size_t at = static_cast<std::size_t>(rng() % text.size());
  switch (rng() % 4) {
    case 0:
      text[at] = static_cast<char>(text[at] ^ (1u << (rng() % 8)));
      break;
    case 1:
      text.insert(at, 1,
                  rng() % 2 == 0
                      ? static_cast<char>(rng() % 256)
                      : kStructural[rng() % kStructural.size()]);
      break;
    case 2:
      text.erase(at, 1);
      break;
    default:
      text.resize(at);
      break;
  }
  return text;
}

}  // namespace tpcool::test
