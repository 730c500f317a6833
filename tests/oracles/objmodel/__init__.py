"""The object-model SSim: the oracle of the production simulator core.

:class:`~tests.oracles.objmodel.simulator.ReferenceSimulator` runs one
``DynInst`` per in-flight instruction through per-Slice component
objects (branch units, issue windows, LSQ banks, ROB, rename state,
caches, MSHRs, store buffers and switched networks).  The production
structure-of-arrays core (:mod:`repro.core.batched`) must match it bit
for bit on every ``SimStats`` field, ``sim.*`` counter and trace event;
``tests/core/test_batched_equivalence.py``, the sampled oracle and the
golden-fixture regeneration run it.
"""
