#!/usr/bin/env bash
# Doc-comment lint for the runtime's public headers.
#
# Fails (exit 1) if a header under src/<module>/ declares a top-level
# class or struct that is not immediately preceded by a `///` doc comment:
# every public type must say what it is for.
#
# Heuristics, kept deliberately simple (grep/awk only):
#   * only column-0 `class X {` / `struct X {` declarations are checked
#     (nested types are indented, so they are exempt);
#   * pure forward declarations (`class X;`) are exempt;
#   * the preceding line must start with `///` (the tail of a doc block),
#     or be a one-line `template <...>` header whose own preceding line
#     starts with `///`.
#
# Usage: tools/check_doc_comments.sh  (from the repository root)

set -u

fail=0
shopt -s nullglob
for header in src/*/*.h; do
  out=$(awk '
    /^(class|struct)[ \t]+[A-Za-z_]/ {
      # Skip pure forward declarations: "class X;" with no brace.
      if ($0 ~ /;[ \t]*$/ && $0 !~ /\{/) { prev2 = prev; prev = $0; next }
      documented = prev ~ /^\/\/\//
      if (prev ~ /^template/ && prev2 ~ /^\/\/\//) documented = 1
      if (!documented) {
        printf "%d: undocumented public type: %s\n", FNR, $0
      }
    }
    { prev2 = prev; prev = $0 }
  ' "$header")
  if [ -n "$out" ]; then
    while IFS= read -r line; do
      echo "$header:$line"
    done <<<"$out"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "error: public types in src/*/*.h need /// doc comments" >&2
  exit 1
fi
echo "doc-comment lint: OK"
