#!/usr/bin/env bash
# Rebuild every checked-in scientific artifact in one command:
#
#   ci/regen_goldens.sh
#
# The study smoke grid and the four figure binaries are deterministic
# (fixed seeds), so `ci/golden/` is reproducible bit for bit; rerun this
# after any deliberate change to model formulas, grid axes, or artifact
# schemas, and review the diff like code.
#
# Cache discipline: a golden regeneration means cell outcomes changed,
# so any study cache populated before the change is stale *in meaning*.
# If the change altered a formula without touching scenario parameters,
# the content-addressed keys do NOT move on their own — you must bump
# the matching schema version (CELLS_SCHEMA_VERSION /
# VALIDATION_SCHEMA_VERSION / MODEL_SCHEMA_VERSION in crates/study/src)
# so old entries miss. The purge below clears the local default cache
# dir either way; CI's cache key embeds the schema tuple, so the bump
# is also what rolls the workflow cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building release binaries"
cargo build --release -p edmac-bench --bins

echo "== purging local study cache (outcomes are being redefined)"
rm -rf .study-cache

echo "== study smoke grid -> ci/golden/"
cargo run --release --bin study -- --smoke --out ci/golden
# The runner records a manifest next to its artifacts; goldens are the
# three study artifacts only (manifests describe a *run*, not results).
rm -f ci/golden/manifest.json

echo "== artifact schema tags"
head -1 ci/golden/study_cells.csv | grep -F "edmac-study/cells/v2"
head -1 ci/golden/study_validation.csv | grep -F "edmac-study/validation/v2"
grep -F '"schema": "edmac-study/summary/v2"' ci/golden/study_summary.json

echo "== full grid validation -> ci/golden/full/"
# The full grid's 27 validation simulations (600 s each) are the
# packet-level work the smoke grid is too small to cover; its cells,
# validation table and summary are all pinned.
cargo run --release --bin study -- --out ci/golden/full
rm -f ci/golden/full/manifest.json
head -1 ci/golden/full/study_cells.csv | grep -F "edmac-study/cells/v2"
head -1 ci/golden/full/study_validation.csv | grep -F "edmac-study/validation/v2"

echo "== coexistence smoke -> ci/golden/"
# Two networks (X-MAC, LMAC) on one shared SINR channel; shard count is
# byte-invariant, so CI may rerun this with --shards 2 and still diff
# clean.
cargo run --release --bin study -- coexistence --smoke --out ci/golden
head -1 ci/golden/coexistence_cells.csv | grep -F "edmac-study/coexistence/v1"
grep -F '"schema": "edmac-study/coexistence/v1"' ci/golden/coexistence_summary.json

echo "== figure binaries -> ci/golden/"
for fig in fig1 fig2 fairness sim_validation; do
  cargo run --release --bin "$fig" > "ci/golden/$fig.csv"
done

echo "== done; review with: git diff ci/"
