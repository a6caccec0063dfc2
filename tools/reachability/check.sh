#!/usr/bin/env bash
# Reachability gate: every externally defined offchip:: function in the
# libraries under src/ must be linked into at least one product binary, or
# be listed in allowlist.txt (next to this script) with a reason.
#
# Usage: tools/reachability/check.sh <build-dir> [jobs]
#
# Configures two scratch builds under <build-dir> at -O0 with one section
# per function and --gc-sections, so a linked binary keeps exactly the
# functions some root of it reaches:
#   main/       the repository: every executable under tools/, bench/ and
#               examples/ (the tests are not built)
#   perfbench/  the benchmark driver, built as its own project
# Then compares the T symbols of main/src/**/lib*.a with the symbols of
# those binaries. Exits 1 when a function is in no binary and not on the
# allowlist, or when an allowlist row is stale (reached again, or gone).
# Header-inline functions are weak symbols and are not checked.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
OUT=${1:?usage: check.sh <build-dir> [jobs]}
JOBS=${2:-$(nproc)}
ALLOWLIST="$ROOT/tools/reachability/allowlist.txt"
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)

configure() { # <source-dir> <binary-dir>
  cmake -S "$1" -B "$2" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=Reachability \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

configure "$ROOT" "$OUT/main"
for Dir in tools bench examples; do
  make -C "$OUT/main/$Dir" -j"$JOBS" --no-print-directory >/dev/null
done
configure "$ROOT/perfbench" "$OUT/perfbench"
make -C "$OUT/perfbench" -j"$JOBS" --no-print-directory >/dev/null

Binaries=()
for Dir in "$OUT/main/tools" "$OUT/main/bench" "$OUT/main/examples" \
           "$OUT/perfbench"; do
  while IFS= read -r -d '' Bin; do
    Binaries+=("$Bin")
  done < <(find "$Dir" -maxdepth 1 -type f -perm -u+x -print0)
done
echo "reachability: ${#Binaries[@]} product binaries"

Work="$OUT/symbols"
mkdir -p "$Work"
find "$OUT/main/src" -name 'lib*.a' -print0 |
  xargs -0 nm --defined-only 2>/dev/null |
  awk '$2 == "T" && $3 ~ /^_ZN(K)?7offchip/ { print $3 }' |
  sort -u >"$Work/defined"
for Bin in "${Binaries[@]}"; do
  nm --defined-only "$Bin" | awk '{ print $NF }'
done | sort -u >"$Work/reached"
# Compared by demangled signature: a constructor or destructor is emitted
# as several variants (complete, base, deleting) under one signature, and
# reaching any of them reaches the function.
c++filt <"$Work/defined" | sort -u >"$Work/defined.demangled"
comm -12 "$Work/defined" "$Work/reached" | c++filt | sort -u \
  >"$Work/reached.demangled"
comm -23 "$Work/defined.demangled" "$Work/reached.demangled" \
  >"$Work/unreached"
echo "reachability: $(wc -l <"$Work/defined.demangled") library functions," \
  "$(wc -l <"$Work/unreached") in no product binary"

# Allowlist rows: "<demangled signature> # <reason>"; blank lines and lines
# starting with '#' are comments.
: >"$Work/allowed"
Status=0
while IFS= read -r Line || [ -n "$Line" ]; do
  case "$Line" in '' | '#'*) continue ;; esac
  Sym=${Line%% # *}
  Reason=${Line#* # }
  if [ "$Sym" = "$Line" ] || [ -z "${Reason// /}" ]; then
    echo "allowlist row without a reason: $Line"
    Status=1
    continue
  fi
  Sym=$(printf '%s' "$Sym" | sed 's/[[:space:]]*$//')
  printf '%s\n' "$Sym" >>"$Work/allowed"
done <"$ALLOWLIST"
sort -u -o "$Work/allowed" "$Work/allowed"

while IFS= read -r Sym; do
  echo "unreached: $Sym"
  Status=1
done < <(comm -23 "$Work/unreached" "$Work/allowed")
while IFS= read -r Sym; do
  if grep -qxF -- "$Sym" "$Work/defined.demangled"; then
    echo "stale allowlist row (reached by a product binary): $Sym"
  else
    echo "stale allowlist row (no such library function): $Sym"
  fi
  Status=1
done < <(comm -13 "$Work/unreached" "$Work/allowed")

if [ "$Status" -eq 0 ]; then
  echo "reachability: ok"
fi
exit "$Status"
