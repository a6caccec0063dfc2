//===- affine/ProgramText.cpp ---------------------------------------------===//

#include "affine/ProgramText.h"

#include "support/Format.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

using namespace offchip;

namespace {

/// Reads all of \p Tok as one decimal integer that is at least \p Min.
/// A leading '-' is the only sign, and only for signed types; letters,
/// whitespace, trailing junk and values out of T's range all fail.
template <typename T>
bool readInt(const std::string &Tok, T &Out,
             T Min = std::numeric_limits<T>::min()) {
  T V{};
  const char *End = Tok.data() + Tok.size();
  auto [Ptr, Ec] = std::from_chars(Tok.data(), End, V);
  if (Ec != std::errc() || Ptr != End || V < Min)
    return false;
  Out = V;
  return true;
}

/// Tokenizes one line into whitespace-separated words, honoring '#'
/// comments and treating '[', ']' and ',' as separate tokens.
std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Out;
  std::string Cur;
  auto Flush = [&] {
    if (!Cur.empty()) {
      Out.push_back(Cur);
      Cur.clear();
    }
  };
  for (char C : Line) {
    if (C == '#')
      break;
    if (std::isspace(static_cast<unsigned char>(C))) {
      Flush();
      continue;
    }
    if (C == '[' || C == ']' || C == ',') {
      Flush();
      Out.push_back(std::string(1, C));
      continue;
    }
    Cur += C;
  }
  Flush();
  return Out;
}

/// Parses an affine subscript expression over iterators i0..i<Depth-1>,
/// e.g. "2*i0-3" or "i1+1". \returns false on malformed input, including
/// a coefficient or constant whose sum overflows 64 bits.
bool parseAffineExpr(const std::string &Text, unsigned Depth,
                     IntVector &Coeffs, std::int64_t &Const) {
  Coeffs.assign(Depth, 0);
  Const = 0;
  std::size_t Pos = 0;
  int Sign = 1;
  bool First = true;
  while (Pos < Text.size()) {
    char C = Text[Pos];
    if (C == '+') {
      Sign = 1;
      ++Pos;
      continue;
    }
    if (C == '-') {
      Sign = -1;
      ++Pos;
      continue;
    }
    // A term: [k*]iN or a constant k.
    std::int64_t K = 1;
    bool HaveNumber = false;
    if (std::isdigit(static_cast<unsigned char>(C))) {
      std::size_t End = Pos;
      while (End < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[End])))
        ++End;
      if (!readInt(Text.substr(Pos, End - Pos), K))
        return false;
      Pos = End;
      HaveNumber = true;
      if (Pos < Text.size() && Text[Pos] == '*')
        ++Pos;
      else {
        if (__builtin_add_overflow(Const, Sign * K, &Const))
          return false;
        Sign = 1;
        First = false;
        continue;
      }
    }
    if (Pos >= Text.size() || Text[Pos] != 'i')
      return false;
    ++Pos;
    std::size_t End = Pos;
    while (End < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[End])))
      ++End;
    if (End == Pos)
      return false;
    unsigned Dim = 0;
    if (!readInt(Text.substr(Pos, End - Pos), Dim) || Dim >= Depth)
      return false;
    Pos = End;
    if (__builtin_add_overflow(Coeffs[Dim], Sign * K, &Coeffs[Dim]))
      return false;
    Sign = 1;
    First = false;
    (void)HaveNumber;
  }
  return !First || Depth == 0;
}

/// Joins tokens between '[' and ']' back into comma-separated expressions.
bool collectSubscripts(const std::vector<std::string> &Tok, std::size_t &I,
                       std::vector<std::string> &Exprs) {
  if (I >= Tok.size() || Tok[I] != "[")
    return false;
  ++I;
  std::string Cur;
  for (; I < Tok.size(); ++I) {
    if (Tok[I] == "]") {
      if (!Cur.empty())
        Exprs.push_back(Cur);
      ++I;
      return !Exprs.empty();
    }
    if (Tok[I] == ",") {
      if (Cur.empty())
        return false;
      Exprs.push_back(Cur);
      Cur.clear();
      continue;
    }
    Cur += Tok[I];
  }
  return false;
}

/// The least and greatest value of Coeffs . i + Const over the box of
/// \p Space, taken at its corners. \returns false when either overflows
/// 64 bits.
bool subscriptRange(const IntVector &Coeffs, std::int64_t Const,
                    const IterationSpace &Space, std::int64_t &Min,
                    std::int64_t &Max) {
  Min = Max = Const;
  for (unsigned J = 0; J < Space.depth(); ++J) {
    std::int64_t AtLo = 0, AtHi = 0;
    if (__builtin_mul_overflow(Coeffs[J], Space.lower(J), &AtLo) ||
        __builtin_mul_overflow(Coeffs[J], Space.upper(J) - 1, &AtHi))
      return false;
    if (AtLo > AtHi)
      std::swap(AtLo, AtHi);
    if (__builtin_add_overflow(Min, AtLo, &Min) ||
        __builtin_add_overflow(Max, AtHi, &Max))
      return false;
  }
  return true;
}

} // namespace

std::optional<AffineProgram>
offchip::parseProgramText(const std::string &Text, std::string *Error) {
  auto Fail = [&](unsigned LineNo,
                  const std::string &Msg) -> std::optional<AffineProgram> {
    if (Error)
      *Error = formatString("line %u: %s", LineNo, Msg.c_str());
    return std::nullopt;
  };
  // Every number is one whole token (readInt); a bad one fails its line.
  unsigned LineNo = 0;
  auto BadNumber = [&](const char *Rule, const std::string &Tok) {
    return Fail(LineNo, formatString("%s, got '%s'", Rule, Tok.c_str()));
  };

  std::optional<AffineProgram> Program;
  std::map<std::string, ArrayId> Arrays;
  LoopNest *CurNest = nullptr;
  // Deferred: index generators run after all arrays are declared.
  struct PendingIndex {
    std::string IndexArray;
    std::string Kind; // "nearby" | "random" | "values"
    std::int64_t Window = 0;
    std::uint64_t Seed = 0;
    std::string DataArray;
    std::vector<std::int64_t> Values;
    unsigned LineNo;
  };
  std::vector<PendingIndex> Pending;

  std::istringstream In(Text);
  std::string Line;
  std::vector<LoopNest> Nests; // staged; appended to the program on "end"

  while (std::getline(In, Line)) {
    ++LineNo;
    std::vector<std::string> Tok = tokenize(Line);
    if (Tok.empty())
      continue;
    const std::string &Kw = Tok[0];

    if (Kw == "program") {
      if (Tok.size() != 2)
        return Fail(LineNo, "expected: program <name>");
      if (Program)
        return Fail(LineNo, "duplicate program directive");
      Program.emplace(Tok[1]);
      continue;
    }
    if (!Program)
      return Fail(LineNo, "the file must start with 'program <name>'");

    if (Kw == "array") {
      // array <name> dims <d...> elem <bytes>
      if (Tok.size() < 5 || Tok[2] != "dims")
        return Fail(LineNo, "expected: array <name> dims <d...> elem <n>");
      std::size_t I = 3;
      IntVector Dims;
      for (; I < Tok.size() && Tok[I] != "elem"; ++I) {
        std::int64_t D = 0;
        if (!readInt(Tok[I], D, std::int64_t{1}))
          return BadNumber("array dimensions must be integers >= 1", Tok[I]);
        Dims.push_back(D);
      }
      if (Dims.empty() || I + 1 >= Tok.size() || Tok[I] != "elem")
        return Fail(LineNo, "expected: array <name> dims <d...> elem <n>");
      unsigned Elem = 0;
      if (!readInt(Tok[I + 1], Elem, 1u))
        return BadNumber("the element size must be an integer >= 1",
                         Tok[I + 1]);
      if (Arrays.count(Tok[1]))
        return Fail(LineNo, "duplicate array '" + Tok[1] + "'");
      std::uint64_t Bytes = Elem;
      for (std::int64_t D : Dims)
        if (__builtin_mul_overflow(Bytes, static_cast<std::uint64_t>(D),
                                   &Bytes))
          return Fail(LineNo, "array '" + Tok[1] + "' overflows 64 bits");
      Arrays[Tok[1]] = Program->addArray({Tok[1], Dims, Elem});
      continue;
    }

    if (Kw == "index") {
      // index <arr> nearby <window> <seed> for <data>
      // index <arr> random <seed> for <data>
      // index <arr> values <v...>
      if (Tok.size() < 3)
        return Fail(LineNo, "malformed index directive");
      PendingIndex P;
      P.IndexArray = Tok[1];
      P.Kind = Tok[2];
      P.LineNo = LineNo;
      if (P.Kind == "nearby") {
        if (Tok.size() != 7 || Tok[5] != "for")
          return Fail(LineNo,
                      "expected: index <a> nearby <window> <seed> for <d>");
        if (!readInt(Tok[3], P.Window, std::int64_t{0}))
          return BadNumber("the window must be an integer >= 0", Tok[3]);
        if (!readInt(Tok[4], P.Seed))
          return BadNumber("the seed must be an unsigned integer", Tok[4]);
        P.DataArray = Tok[6];
      } else if (P.Kind == "random") {
        if (Tok.size() != 6 || Tok[4] != "for")
          return Fail(LineNo, "expected: index <a> random <seed> for <d>");
        if (!readInt(Tok[3], P.Seed))
          return BadNumber("the seed must be an unsigned integer", Tok[3]);
        P.DataArray = Tok[5];
      } else if (P.Kind == "values") {
        for (std::size_t I = 3; I < Tok.size(); ++I) {
          std::int64_t V = 0;
          if (!readInt(Tok[I], V))
            return BadNumber("index values must be integers", Tok[I]);
          P.Values.push_back(V);
        }
      } else {
        return Fail(LineNo, "unknown index generator '" + P.Kind + "'");
      }
      Pending.push_back(std::move(P));
      continue;
    }

    if (Kw == "nest") {
      // nest <name> bounds <lo:hi>... parallel <u> [repeat <n>]
      if (CurNest)
        return Fail(LineNo, "nested 'nest' without 'end'");
      std::size_t I = 2;
      if (Tok.size() < 5 || Tok[I] != "bounds")
        return Fail(LineNo, "expected: nest <name> bounds <lo:hi>... "
                            "parallel <dim> [repeat <n>]");
      ++I;
      IntVector Lo, Hi;
      while (I < Tok.size() && Tok[I] != "parallel") {
        std::size_t Colon = Tok[I].find(':');
        if (Colon == std::string::npos)
          return Fail(LineNo, "bound must be <lo>:<hi>");
        std::int64_t L = 0, H = 0;
        if (!readInt(Tok[I].substr(0, Colon), L) ||
            !readInt(Tok[I].substr(Colon + 1), H))
          return BadNumber("bound ends must be integers", Tok[I]);
        if (H <= L)
          return BadNumber("a bound <lo>:<hi> needs hi > lo", Tok[I]);
        Lo.push_back(L);
        Hi.push_back(H);
        ++I;
      }
      if (Lo.empty() || I + 1 >= Tok.size())
        return Fail(LineNo, "missing parallel dimension");
      unsigned U = 0;
      if (!readInt(Tok[I + 1], U))
        return BadNumber("the parallel dimension must be an unsigned integer",
                         Tok[I + 1]);
      if (U >= Lo.size())
        return Fail(LineNo, "parallel dimension out of range");
      unsigned Repeat = 1;
      std::size_t Rest = Tok.size() - (I + 2);
      if (Rest != 0 && (Rest != 2 || Tok[I + 2] != "repeat"))
        return Fail(LineNo, "expected at most 'repeat <n>' after 'parallel "
                            "<dim>'");
      if (Rest == 2 && !readInt(Tok[I + 3], Repeat, 1u))
        return BadNumber("the repeat count must be an integer >= 1",
                         Tok[I + 3]);
      Nests.emplace_back(Tok[1], IterationSpace(Lo, Hi), U);
      Nests.back().setRepeatCount(Repeat);
      CurNest = &Nests.back();
      continue;
    }

    if (Kw == "end") {
      if (!CurNest)
        return Fail(LineNo, "'end' without 'nest'");
      CurNest = nullptr;
      continue;
    }

    if (Kw == "read" || Kw == "write" || Kw == "gather-read" ||
        Kw == "gather-write") {
      if (!CurNest)
        return Fail(LineNo, "reference outside a nest");
      bool Gather = Kw.rfind("gather", 0) == 0;
      bool Write = Kw == "write" || Kw == "gather-write";
      std::size_t I = 1;
      if (I >= Tok.size())
        return Fail(LineNo, "missing array name");
      std::string Target = Tok[I++];
      std::string Via;
      if (Gather) {
        if (I + 1 >= Tok.size() || Tok[I] != "via")
          return Fail(LineNo, "gather reference needs 'via <indexarray>'");
        Via = Tok[I + 1];
        I += 2;
      }
      std::vector<std::string> Exprs;
      if (!collectSubscripts(Tok, I, Exprs))
        return Fail(LineNo, "malformed subscript list");
      unsigned Depth = CurNest->space().depth();
      std::string AccessedName = Gather ? Via : Target;
      auto ArrIt = Arrays.find(AccessedName);
      if (ArrIt == Arrays.end())
        return Fail(LineNo, "unknown array '" + AccessedName + "'");
      const ArrayDecl &Decl = Program->array(ArrIt->second);
      if (Exprs.size() != Decl.rank())
        return Fail(LineNo, "subscript count does not match array rank");
      IntMatrix A(Decl.rank(), Depth);
      IntVector O(Decl.rank());
      for (unsigned D = 0; D < Decl.rank(); ++D) {
        IntVector Coeffs;
        std::int64_t Const;
        if (!parseAffineExpr(Exprs[D], Depth, Coeffs, Const))
          return Fail(LineNo, "malformed expression '" + Exprs[D] + "'");
        std::int64_t Min = 0, Max = 0;
        if (!subscriptRange(Coeffs, Const, CurNest->space(), Min, Max))
          return Fail(LineNo, "subscript '" + Exprs[D] +
                                  "' overflows 64 bits over the nest's bounds");
        if (Min < 0 || Max >= Decl.Dims[D])
          return Fail(LineNo,
                      formatString("subscript '%s' spans %lld..%lld over the "
                                   "nest's bounds, outside '%s' (0..%lld)",
                                   Exprs[D].c_str(), static_cast<long long>(Min),
                                   static_cast<long long>(Max),
                                   Decl.Name.c_str(),
                                   static_cast<long long>(Decl.Dims[D] - 1)));
        for (unsigned J = 0; J < Depth; ++J)
          A.at(D, J) = Coeffs[J];
        O[D] = Const;
      }
      if (!Gather) {
        CurNest->addRef(AffineRef(ArrIt->second, A, O, Write));
      } else {
        auto DataIt = Arrays.find(Target);
        if (DataIt == Arrays.end())
          return Fail(LineNo, "unknown array '" + Target + "'");
        CurNest->addIndexedRef(
            {DataIt->second, ArrIt->second,
             AffineRef(ArrIt->second, A, O, false), Write});
      }
      continue;
    }

    return Fail(LineNo, "unknown directive '" + Kw + "'");
  }
  if (CurNest)
    return Fail(LineNo, "missing 'end' for the last nest");
  if (!Program)
    return Fail(LineNo, "empty input");

  // Resolve index generators now that every array exists.
  for (const PendingIndex &P : Pending) {
    auto It = Arrays.find(P.IndexArray);
    if (It == Arrays.end())
      return Fail(P.LineNo, "unknown index array '" + P.IndexArray + "'");
    std::uint64_t Count = Program->array(It->second).numElements();
    // The rows the index array selects in every data array gathered
    // through it: the inline values, or [0, Dims[0]) of the 'for' array the
    // nearby/random generators draw from.
    std::int64_t MinRow = 0;
    std::int64_t MaxRow = -1;
    const ArrayDecl *For = nullptr;
    if (P.Kind == "values") {
      if (P.Values.size() != Count)
        return Fail(P.LineNo, "value count does not match the array size");
      if (!P.Values.empty()) {
        auto [Lo, Hi] = std::minmax_element(P.Values.begin(), P.Values.end());
        MinRow = *Lo;
        MaxRow = *Hi;
      }
    } else {
      auto DataIt = Arrays.find(P.DataArray);
      if (DataIt == Arrays.end())
        return Fail(P.LineNo, "unknown data array '" + P.DataArray + "'");
      For = &Program->array(DataIt->second);
      MaxRow = For->Dims[0] - 1;
    }
    for (const LoopNest &Nest : Nests)
      for (const IndexedRef &Ref : Nest.indexedRefs()) {
        if (Ref.IndexArray != It->second)
          continue;
        const ArrayDecl &Data = Program->array(Ref.DataArray);
        if (MinRow >= 0 && MaxRow < Data.Dims[0])
          continue;
        if (For)
          return Fail(P.LineNo,
                      formatString("index '%s' draws rows 0..%lld of '%s', "
                                   "but '%s' (0..%lld), which is gathered "
                                   "via '%s', has fewer",
                                   P.IndexArray.c_str(),
                                   static_cast<long long>(MaxRow),
                                   For->Name.c_str(), Data.Name.c_str(),
                                   static_cast<long long>(Data.Dims[0] - 1),
                                   P.IndexArray.c_str()));
        // The extremes are out of range, so some value is: name the first.
        std::int64_t V = *std::find_if(
            P.Values.begin(), P.Values.end(),
            [&](std::int64_t X) { return X < 0 || X >= Data.Dims[0]; });
        return Fail(P.LineNo,
                    formatString("index value %lld is outside '%s' (0..%lld), "
                                 "which is gathered via '%s'",
                                 static_cast<long long>(V), Data.Name.c_str(),
                                 static_cast<long long>(Data.Dims[0] - 1),
                                 P.IndexArray.c_str()));
      }
    if (!For)
      Program->setIndexArrayValues(It->second, P.Values);
    else
      Program->setIndexArrayValues(
          It->second,
          P.Kind == "nearby"
              ? IndexValues::nearby(Count, MaxRow + 1, P.Window, P.Seed)
              : IndexValues::random(Count, MaxRow + 1, P.Seed));
  }
  for (LoopNest &Nest : Nests)
    Program->addNest(std::move(Nest));
  return Program;
}
