//===- api/ContentHash.cpp ------------------------------------------------===//

#include "api/ContentHash.h"

#include "support/Format.h"

#include <cstring>

using namespace offchip;

namespace {

/// Two FNV-1a-64 streams over the same bytes, seeded differently. Every
/// value is appended behind a one-byte field tag plus (for strings) an
/// explicit length, so the encoding is prefix-free per field and reordering
/// or merging fields can never produce the same byte stream.
class HashStream {
public:
  void bytes(const void *Data, std::size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (std::size_t I = 0; I < Len; ++I) {
      A = (A ^ P[I]) * Prime;
      B = (B ^ P[I]) * Prime;
    }
  }

  void u64(unsigned char Tag, std::uint64_t V) {
    bytes(&Tag, 1);
    unsigned char Buf[8];
    for (int I = 0; I < 8; ++I)
      Buf[I] = static_cast<unsigned char>(V >> (8 * I));
    bytes(Buf, 8);
  }

  void f64(unsigned char Tag, double V) {
    std::uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Tag, Bits);
  }

  void str(unsigned char Tag, const std::string &S) {
    u64(Tag, S.size());
    bytes(S.data(), S.size());
  }

  CacheKey key() const { return {A, B}; }

private:
  static constexpr std::uint64_t Prime = 0x100000001B3ull;
  std::uint64_t A = 0xCBF29CE484222325ull; // FNV offset basis
  std::uint64_t B = 0x6C62272E07BB0142ull; // FNV-128 basis low word
};

} // namespace

std::string CacheKey::str() const {
  return formatString("%016llx%016llx", static_cast<unsigned long long>(Hi),
                      static_cast<unsigned long long>(Lo));
}

CacheKey offchip::requestKey(const SimRequest &R) {
  HashStream H;

  // Request shape.
  H.u64(0x01, static_cast<std::uint64_t>(R.Kind));
  H.u64(0x02, R.MCsPerCluster);

  // Workload.
  if (R.Workload.isApp()) {
    H.str(0x10, R.Workload.App);
    H.f64(0x11, R.Workload.SizeScale);
  } else {
    H.str(0x12, R.Workload.ProgramText);
  }

  // Machine config: every row of the field list except the result-invariant
  // ones, under its tag, in list order — but list rows (the Explicit node
  // list) after all scalar rows, their length under the row's tag and each
  // element under the next tag, so {1},{2} and {1,2} can never collide.
  for (bool ListPass : {false, true})
    forEachConfigField(
        [&](ConfigField F, const auto &Member) {
          constexpr bool IsList = requires { Member.size(); };
          if (F.HashTag == ResultInvariant || IsList != ListPass)
            return;
          if constexpr (IsList) {
            H.u64(F.HashTag, Member.size());
            for (std::uint64_t X : Member)
              H.u64(static_cast<unsigned char>(F.HashTag + 1), X);
          } else {
            H.u64(F.HashTag, static_cast<std::uint64_t>(Member));
          }
        },
        R.Config);

  return H.key();
}
