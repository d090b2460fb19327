import collections

from spinbench.workloads import WORKLOADS, arrival_schedule

OPEN = WORKLOADS["tenants-poisson"]


def test_every_seed_offers_the_same_load():
    offered = []
    for seed in (1, 2):
        arrivals = arrival_schedule(OPEN, seed, 10.0, start_index=7)
        assert [a.index for a in arrivals] == list(range(7, 7 + 1000))
        dues = [a.due for a in arrivals]
        assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 10.0
        offered.append((collections.Counter(a.model for a in arrivals),
                        collections.Counter(a.rows for a in arrivals)))
    models, rows = offered[0]
    assert models == {"spindrop_mlp": 750, "spinbayes": 250}
    assert rows == {1: 250, 2: 250, 3: 250, 4: 250}
    assert offered[1] == offered[0]


def test_the_seed_draws_times_and_order():
    a = arrival_schedule(OPEN, 1, 2.0)
    b = arrival_schedule(OPEN, 2, 2.0)
    assert [x.due for x in a] != [x.due for x in b]
    assert [(x.model, x.rows) for x in a] != [(x.model, x.rows) for x in b]
    assert a == arrival_schedule(OPEN, 1, 2.0)
