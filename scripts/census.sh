#!/usr/bin/env bash
# Size census: how much code, public surface, lint escapes, global
# state and configuration the tree carries. Each PR pastes the output
# into its CHANGES.md entry so size is tracked. `ddbench/` is the
# frozen judge, not the program, and is left out.
set -euo pipefail
cd "$(dirname "$0")/.."

rust_lines() {
    find "$@" -name '*.rs' -print0 2>/dev/null | xargs -0 -r cat | wc -l
}

echo "rust lines"
for dir in crates/* shims/*; do
    [ -d "$dir" ] && printf '  %-24s %6d\n' "$dir" "$(rust_lines "$dir")"
done
printf '  %-24s %6d\n' "crates+shims" "$(rust_lines crates shims)"
printf '  %-24s %6d\n' "src+tests+examples" "$(rust_lines src tests examples)"
printf '  %-24s %6d\n' "crates/olap/src/cube.rs" "$(wc -l <crates/olap/src/cube.rs)"

count() {
    { grep -rE --include='*.rs' "$@" || true; } | wc -l
}

echo "pub items (crates+shims)     $(count '^\s*pub (unsafe )?(fn|struct|enum|trait|const|static|type|mod|use) ' crates shims)"
echo "lint:allow escapes           $(count 'lint:allow' crates shims src tests examples)"
# `static NAME:` that is not a thread-local cell, test-only ones included.
echo "process-global statics       $({ grep -rE --include='*.rs' '^\s*(pub(\([a-z]+\))? )?static [A-Z_]+:' crates shims || true; } | grep -vc 'Cell<')"

# Independently settable values: the fields of the four config structs.
fields() {
    awk -v name="$2" '
        $0 ~ "^pub struct " name " \\{" { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub [a-z_]+:/ { n++ }
        END { print n + 0 }
    ' "$1"
}
serve=$(fields crates/serve/src/service.rs ServeConfig)
router=$(fields crates/serve/src/router.rs RouterConfig)
quota=$(fields crates/serve/src/quota.rs QuotaConfig)
compaction=$(fields crates/warehouse/src/segments.rs CompactionConfig)
echo "options                      $((serve + router + quota + compaction)) (ServeConfig $serve, RouterConfig $router, QuotaConfig $quota, CompactionConfig $compaction)"
