"""The repository benchmark: ``python3 perfbench/run.py --workload <name>``.

Three workloads exercise the shipped code end to end:

* ``grid``  -- library use: ``Matcher(data)`` plans and executes every eval
  query of the Table III grid (sizes 4/8/16/32 on four datasets);
* ``serve`` -- the HTTP server under a seeded open-loop schedule of warm
  relabelings and cold misses;
* ``train`` -- PPO training of the RL-QVO policy, then the learned order
  against RI on the eval split.

Untraced runs print the end-to-end metrics; ``--trace 1`` wraps the
public entry of each layer from this package (nothing under ``src/`` is
touched) and prints the per-layer metrics listed in :mod:`perfbench.tracing`.
See ``perfbench/README.md`` for what each metric means and which
end-to-end metric each layer metric should move.
"""
