#!/usr/bin/env bash
# One-command quality gate: simlint -> ruff -> mypy -> pytest.
#
# Fails fast: the first failing step aborts the gate and the script
# exits with THAT tool's exit code (not a generic 1), so CI and
# pre-commit hooks can distinguish lint violations (1), parse errors
# (2), test failures, etc.
#
# ruff and mypy are optional tooling (install with `pip install -e
# .[dev]`); when a tool is not on PATH the step is skipped with a
# notice rather than failing, so the gate stays runnable in minimal
# environments — simlint and pytest always run.
#
# Usage:
#   scripts/check.sh                 # full gate
#   scripts/check.sh --changed-only  # lint/ruff only files touched vs
#                                    # HEAD (plus untracked), for fast
#                                    # pre-commit runs
set -uo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

CHANGED_ONLY=0
for arg in "$@"; do
    case "$arg" in
        --changed-only) CHANGED_ONLY=1 ;;
        -h|--help)
            grep '^#' "$0" | sed 's/^# \{0,1\}//' | sed -n '2,18p'
            exit 0
            ;;
        *)
            echo "unknown argument: $arg (try --help)" >&2
            exit 64
            ;;
    esac
done

run_step() {
    local name="$1"
    shift
    printf '\n==> %s\n' "$name"
    "$@"
    local code=$?
    if [ "$code" -ne 0 ]; then
        printf '\ncheck.sh: FAILED at "%s" (exit %d)\n' "$name" "$code" >&2
        exit "$code"
    fi
}

notice() {
    printf '\n==> %s\n' "$*"
}

# Changed .py files vs HEAD, plus untracked ones (NUL-safe is overkill
# here: the tree forbids whitespace in tracked names).  Scoped to
# src/ — the same tree the full gate lints; files outside a package
# root would get every rule regardless of scope and fail spuriously.
changed_py_files() {
    {
        git diff --name-only HEAD -- 'src/*.py'
        git ls-files --others --exclude-standard -- 'src/*.py'
    } | sort -u
}

if [ "$CHANGED_ONLY" -eq 1 ]; then
    mapfile -t CHANGED < <(changed_py_files)
    if [ "${#CHANGED[@]}" -eq 0 ]; then
        notice "no changed Python files — lint steps skipped"
    else
        run_step "simlint (changed files only)" \
            python -m repro.lint "${CHANGED[@]}"
        if command -v ruff >/dev/null 2>&1; then
            run_step "ruff check (changed files only)" \
                ruff check "${CHANGED[@]}"
        else
            notice "ruff not installed — skipping (pip install -e .[dev])"
        fi
    fi
else
    run_step "simlint (python -m repro.lint src/repro)" \
        python -m repro.lint src/repro
    if command -v ruff >/dev/null 2>&1; then
        run_step "ruff check src tests" ruff check src tests
    else
        notice "ruff not installed — skipping (pip install -e .[dev])"
    fi
fi

if command -v mypy >/dev/null 2>&1; then
    run_step "mypy --strict src/repro/sim src/repro/core" \
        mypy --strict src/repro/sim src/repro/core
else
    notice "mypy not installed — skipping (pip install -e .[dev])"
fi

run_step "pytest" python -m pytest -x -q

notice "all checks passed"
