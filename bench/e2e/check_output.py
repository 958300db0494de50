#!/usr/bin/env python3
"""ctest check for bench_e2e on one shrunk workload.

Runs the end-to-end and the traced mode at test size, and fails unless:
every run passed its checks (the traced run includes replay digest ==
run_pic digest), every `metric`/`layer` line parses as name, number, unit,
the last line is the JSON result, agrees with the text lines and carries
exactly the metrics BENCHMARK.json declares, the layer breakdown adds up
to the wall time, the span file loads as JSON,
and a semantics-changing PICPAR_* variable makes the bench refuse to run.

    check_output.py <path to bench_e2e> <workload>
"""
import json
import os
import subprocess
import sys
import tempfile


def run(cmd, env=None):
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600, env=env)
    return p.returncode, p.stdout, p.stderr


def parse(out, kind):
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    text = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        fields = line.split()
        assert len(fields) == 4 and fields[0] == kind, line
        text[fields[1]] = (float(fields[2]), fields[3])
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (name, m)
        assert text[name] == (m["value"], m["unit"]), (name, text[name], m)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    assert any(l.startswith("# digest ") for l in lines), "no digest line"
    return result, text


def declared(section):
    """(name, unit) pairs BENCHMARK.json declares for one metric section."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as f:
        return {(m["name"], m["unit"]) for m in json.load(f)[section]}


def reported(result):
    return {(n, m["unit"]) for n, m in result["metrics"].items()}


def main():
    exe, workload = sys.argv[1], sys.argv[2]
    base = [exe, "--workload", workload, "--shrink", "--seconds", "0"]

    code, out, err = run(base + ["--trace", "0"])
    assert code == 0, (code, err)
    result, _ = parse(out, "metric")
    assert reported(result) == declared("end_to_end"), reported(result)
    assert all(m["value"] > 0 for m in result["metrics"].values()), result

    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        spans = os.path.join(tmp, "spans.json")
        code, out, err = run(base + ["--trace", "1", "--trace-out", spans])
        assert code == 0, (code, err)
        result, text = parse(out, "layer")
        assert reported(result) == declared("per_layer"), reported(result)
        assert abs(text["bench.unattributed_frac"][0]) <= 0.05, text
        with open(spans) as f:
            trace = json.load(f)
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"pic.deposit", "sim.collective", "send", "recv"} <= names

    env = dict(os.environ, PICPAR_ANALYZE="1")
    code, out, err = run(base, env=env)
    assert code != 0 and "PICPAR_ANALYZE" in err and not out.strip(), (code, out)
    print(f"BenchE2E.{workload}: ok")


if __name__ == "__main__":
    main()
