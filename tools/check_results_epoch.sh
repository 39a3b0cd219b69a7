#!/bin/sh
# Fail when a committed golden result changed since BASE while the results
# epoch did not.
#
# context_key() (src/sim/experiment.cpp) mixes kResultsEpoch, so bumping
# it renames every cache shard and old --cache-dirs go cold once. A change
# whose results differ from BASE's -- it edits a tests/golden/*.json --
# must bump it; otherwise an old cache dir would serve values the code no
# longer computes.
#
# Usage: tools/check_results_epoch.sh BASE [HEAD]
#   BASE  the commit to compare with: a pull request's base, or the
#         commit a push replaced. Empty or all zeros (a new branch) has
#         nothing to compare with and passes.
#   HEAD  the commit to check (default: HEAD).
set -eu

base=${1:-}
head=${2:-HEAD}
if [ -z "$(printf '%s' "$base" | tr -d 0)" ]; then
  echo "results epoch: no base commit, nothing to compare"
  exit 0
fi
if ! git cat-file -e "$base^{commit}" 2>/dev/null; then
  echo "results epoch: base commit $base is not in this clone" >&2
  exit 1
fi

if git diff --quiet "$base" "$head" -- 'tests/golden/*.json'; then
  echo "results epoch: no golden changed since $base"
  exit 0
fi

epoch_at() {
  git show "$1:src/sim/experiment.cpp" 2>/dev/null |
    sed -n 's/.*kResultsEpoch = \([0-9][0-9]*\);.*/\1/p'
}
old=$(epoch_at "$base")
new=$(epoch_at "$head")
if [ -n "$new" ] && [ "$old" != "$new" ]; then
  echo "results epoch: goldens changed, kResultsEpoch ${old:-none} -> $new"
  exit 0
fi
echo "results epoch: tests/golden/*.json changed since $base, but" \
  "kResultsEpoch in src/sim/experiment.cpp is still ${new:-missing};" \
  "bump it so old cache dirs go cold:" >&2
git diff --stat "$base" "$head" -- 'tests/golden/*.json' >&2
exit 1
