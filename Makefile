# Development targets.

.PHONY: install test lint bench report docs examples all clean

install:
	pip install -e .[test]

test:
	pytest tests/ -q

# The determinism linter gates on a clean tree (exit 1 on findings,
# 2 on usage errors) and runs all four rule families: DET001..DET008,
# SCH001..SCH003, EFF001/002/006/007 and FPR001..FPR008.  ruff/mypy also
# gate when
# installed, and are skipped when absent so the target works in a
# bare checkout (detlint itself needs no deps).
lint:
	python tools/detlint src/ --output detlint.json --sarif-output detlint.sarif
	@if command -v ruff >/dev/null 2>&1; \
	then ruff check src/ tests/ benchmarks/ examples/; \
	else echo "ruff not installed; skipped"; fi
	@if command -v mypy >/dev/null 2>&1; \
	then mypy; \
	else echo "mypy not installed; skipped"; fi

bench:
	pytest benchmarks/ --benchmark-only -q

report:
	repro-testbed report --output docs/REPORT.md

docs:
	python tools/gen_api_docs.py

examples:
	python examples/quickstart.py
	python examples/v2x_messaging.py
	python examples/blind_corner_intersection.py
	python examples/platoon_emergency_brake.py
	python examples/latency_characterization.py 10
	python examples/signalized_intersection.py
	python examples/secured_v2x.py

all: test bench report docs

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
