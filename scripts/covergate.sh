#!/usr/bin/env sh
# Reads the merged coverage profile of the whole module, as
#
#   go test -coverpkg=./... -coverprofile=cover.out ./...
#
# writes it (every package's blocks, once per test binary), and
#   - prints each package's statement coverage and the total over internal/;
#   - lists the functions outside cmd/ and examples/ that no test runs;
#   - fails when that list differs from the allow-list: on a function not on
#     the list, and on an entry that a test now runs or that is gone, so the
#     list can only shrink.
#
#   scripts/covergate.sh [PROFILE [ALLOWLIST]]   # defaults: cover.out, scripts/cover-allow.txt
#
# A function runs when any block inside it ran. go tool cover -func gives
# only where each function starts, and reads an empty function that ran as
# 0 % (0 of 0 statements), so the blocks decide. An allow-list line is
# "FILE FUNCTION REASON...", FILE relative to the module root; a line that
# starts with # is a comment.
set -eu
export LC_ALL=C

cd "$(dirname "$0")/.."

PROFILE="${1:-cover.out}"
ALLOW="${2:-scripts/cover-allow.txt}"
MOD="$(go list -m)/"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# "FILE LINE FUNCTION" for every function of the module.
go tool cover -func="$PROFILE" | awk -v mod="$MOD" '
	$1 != "total:" { split($1, at, ":"); f = at[1]; sub("^" mod, "", f); print f, at[2], $2 }
' >"$TMP/funcs"

# Merge the blocks across test binaries, charge each to the function it
# starts in, and report.
awk -v mod="$MOD" -v unrun="$TMP/unrun" '
	FNR == NR { n[$1]++; line[$1, n[$1]] = $2; name[$1, n[$1]] = $3; next }
	/^mode:/ { next }
	{
		split($1, at, ":"); f = at[1]; sub("^" mod, "", f)
		split(at[2], pos, "."); start = pos[1] + 0
		key = f SUBSEP at[2]
		if (!(key in stmts)) { stmts[key] = $2; file[key] = f; first[key] = start }
		if ($3 > 0) hit[key] = 1
	}
	END {
		for (key in stmts) {
			f = file[key]; pkg = f; if (!sub("/[^/]*$", "", pkg)) pkg = "."
			total[pkg] += stmts[key]
			if (key in hit) covered[pkg] += stmts[key]
			# the function the block starts in: the last one starting at or before it
			best = 0
			for (i = 1; i <= n[f]; i++)
				if (line[f, i] <= first[key] && (best == 0 || line[f, i] > line[f, best])) best = i
			if (best == 0) continue
			seen[f, best] = 1
			if (key in hit) ran[f, best] = 1
		}
		for (pkg in total) {
			printf "%-28s %6d/%-6d %5.1f%%\n", pkg, covered[pkg], total[pkg], total[pkg] ? 100 * covered[pkg] / total[pkg] : 0 | "sort"
			if (pkg ~ /^internal\//) { it += total[pkg]; ic += covered[pkg] }
		}
		close("sort")
		printf "%-28s %6d/%-6d %5.1f%%\n", "internal/ (all)", ic, it, it ? 100 * ic / it : 0
		for (fi in seen) {
			split(fi, p, SUBSEP); f = p[1]; i = p[2]
			if (f !~ /^(cmd|examples)\// && !((f, i) in ran)) print f, name[f, i] > unrun
		}
	}
' "$TMP/funcs" "$PROFILE"

touch "$TMP/unrun"
sort -u "$TMP/unrun" >"$TMP/unrun.sorted"
echo
echo "functions outside cmd/ and examples/ that no test runs: $(wc -l <"$TMP/unrun.sorted")"
sed 's/^/  /' "$TMP/unrun.sorted"

grep -Ev '^[[:space:]]*(#|$)' "$ALLOW" >"$TMP/allow" || true
fail=0
awk 'NF < 3 { print "allow-list entry without a reason: " $0; bad = 1 } END { exit bad }' "$TMP/allow" || fail=1
awk '{ print $1, $2 }' "$TMP/allow" | sort -u >"$TMP/allow.sorted"
comm -23 "$TMP/unrun.sorted" "$TMP/allow.sorted" >"$TMP/new"
comm -13 "$TMP/unrun.sorted" "$TMP/allow.sorted" >"$TMP/stale"
if [ -s "$TMP/new" ]; then
	echo
	echo "FAIL: no test runs these functions; test them, delete them, or list them in $ALLOW with a reason:"
	sed 's/^/  /' "$TMP/new"
	fail=1
fi
if [ -s "$TMP/stale" ]; then
	echo
	echo "FAIL: these $ALLOW entries are run by a test now, or gone; remove them:"
	sed 's/^/  /' "$TMP/stale"
	fail=1
fi
if [ "$fail" -eq 0 ]; then
	echo "ok: every function no test runs is on $ALLOW"
fi
exit "$fail"
