"""The benchmark's result line parses and names every metric.

Run: python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

spec = importlib.util.spec_from_file_location(
    'perfbench_run', os.path.join(ROOT, 'perfbench', 'run.py'))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
    BENCH = json.load(f)

END_TO_END = ['setup_s', 'gcups', 'latency_p50_ms', 'latency_p99_ms',
              'goodput_pct', 'throughput_rps', 'peak_rss_mb']
WORKLOADS = ['hmmsearch_swissprot', 'hmmscan_pfam']


class ResultLine(unittest.TestCase):

    def parse(self, metrics, units, failed=0):
        line = run.result_line(12, failed, metrics, units)
        self.assertNotIn('\n', line)
        r = json.loads(line)
        self.assertEqual(sorted(r), ['attempted', 'correct', 'failed',
                                     'metrics'])
        return r

    def test_end_to_end_names_and_units(self):
        self.assertEqual([m['name'] for m in BENCH['end_to_end']], END_TO_END)
        metrics = {name: 1.25 + i for i, name in enumerate(END_TO_END)}
        r = self.parse(metrics, run.UNITS)
        self.assertTrue(r['correct'])
        for m in BENCH['end_to_end']:
            got = r['metrics'][m['name']]
            self.assertEqual(got['unit'], m['unit'])
            self.assertIsInstance(got['value'], float)

    def test_per_layer_names_and_units(self):
        names = [m['name'] for m in BENCH['per_layer']]
        self.assertEqual(len(names), len(set(names)))
        r = self.parse({n: 2.5 for n in names}, run.per_layer_units())
        for m in BENCH['per_layer']:
            self.assertEqual(r['metrics'][m['name']]['unit'], m['unit'])

    def test_failures_make_the_run_incorrect(self):
        r = self.parse({'setup_s': 1.0}, run.UNITS, failed=2)
        self.assertFalse(r['correct'])
        self.assertEqual(r['failed'], 2)

    def test_workloads_and_goodput_limits_agree(self):
        self.assertEqual([w['name'] for w in BENCH['workloads']], WORKLOADS)
        self.assertEqual(sorted(run.LIMIT_MS), sorted(WORKLOADS))
        for w in BENCH['workloads']:
            limit = re.search(r'Goodput limit (\d+) ms', w['why'])
            self.assertIsNotNone(limit, w['name'])
            self.assertEqual(float(limit.group(1)), run.LIMIT_MS[w['name']])

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(run.percentile(values, 50), 500)
        self.assertEqual(run.percentile(values, 99), 990)


if __name__ == '__main__':
    unittest.main()
