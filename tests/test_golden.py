"""Golden outputs: the sha256 of CLI stdout and the Table 1 and Table 2 values.

The digests were recorded before CORE_ALGEBRA took over delta_u and match
quality (the sweep-cube ones before the cube lost its process pool), so a
refactor that claims byte-identical output is checked here.
A change that means to alter one of these outputs updates its digest and
says why.
"""
import hashlib

import pytest

import segsolve.benchmarks as bm
import segsolve.cli as cli

STDOUT_SHA256 = {
    ("tables",): "ff2ef6ccd4bb73d0032241a0a25eca6e1e0efc1917055c0cb05084c6f85bb70b",
    ("tables", "--csv"): "8f2bc4f3723c7a9953f580871b964016345d763c720a9167a5802ed777e7f183",
    ("check", "--example"): "fc9a1f69d9e61b1a64f4e23eda878b81152607c482494e73a58484f5a54e20f0",
    ("solve", "--example"): "e540b1dde39fb4497d2babedff0f9244b44d6f8e622c0fe7a112ab4411859680",
    ("compare", "--example"): "a2af4c9db3f901f692dd5f3c4e04d38a66f660164f27bcd7ce8dd7a89fe8cea7",
    ("sweep-kink", "--example", "--step", "0.01"): "898b42d147dd7192939983b795b011bf617342a75181b90f1fe7ef51d2ab4e43",
    ("sweep-cube",): "fa084738f94fcca61229d5e0a0b15f112a9706d1983c0d3649957c94a6c06c33",
    ("sweep-cube", "--step", "0.05", "--rho", "0.3,0.5", "--q", "0.4,0.6", "--pi", "0.2,0.3"):
        "355c149a31ab5838bf5d0917c194da977e0e59ef0cee63cc90afa197929035d0",
    # 2 x 200k-agent DA replications: every draw, assignment and statistic,
    # recorded while the shock and wealth draws still went through rng.choice
    ("simulate", "--example"): "821532b27f61d0396432f4212e27a24185c7a911eeee3aab941b96b7254dbe04",
    # the same under N and TTC, recorded while agents still carried int64
    # school columns and a per-agent omega array
    ("simulate", "--example", "--mech", "n"):
        "d7be26ef0f8168209cf10095401e1067b6ba4700088eea00381ff2749f8f1353",
    ("simulate", "--example", "--mech", "ttc"):
        "4d6c752ab55c686bd37ad4e239d4f29fcb8d41e14f717d36e194985b33671b31",
    # both policy fixed points, recorded when solve_policy became exact
    ("solve", "--example", "--mech", "da_l,da_wl"):
        "c4467d9b42a1871cc565fc26949ac49b8eb33eeb6deecbbebeeedd86ae242ec4",
}

# (poor share c1 %, poor, rich, total, poor share of quality %) per row
TABLE1 = {
    "n": (40.62500000000001, 13.609375000000002, 18.109375, 31.71875,
          42.906403940886705),
    "da_short": (44.88636363636364, 19.430871212121215, 23.930871212121207,
                 43.36174242424242, 44.81109412535489),
    "ttc_short": (40.62500000000001, 15.369791666666671, 21.869791666666664,
                  37.239583333333336, 41.27272727272729),
    "da": (40.62499999999999, 17.374763257575754, 25.624763257575754,
           42.99952651515151, 40.40687111160051),
    "ttc": (9.374999999999991, 3.7031249999999973, 31.869791666666675,
            35.57291666666667, 10.40995607613469),
    "no_priority": (50.0, 16.666666666666664, 16.666666666666664,
                    33.33333333333333, 50.0),
    "auction": (40.94202898550724, 24.707624448645245, 31.230623818525515,
                55.93824826717076, 44.1694640322617),
}

# (n1 %, c1 %) per row, recorded before the policies read DA's row of
# CORE_ALGEBRA and the lottery entry in place of the example's constants;
# the long rows since solve_policy's fixed point is exact
TABLE2 = {
    "da": (32.8125, 40.62500000000001),
    "short_l": (32.8125, 42.36111111111111),
    "short_wl": (32.8125, 55.208333333333336),
    "long_l": (35.74218750000001, 43.66319444444444),
    "long_wl": (9.70934637151222, 39.806230914341484),
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_stdout_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_table_one_values():
    rows = bm.table_one()
    assert [row.scenario for row in rows] == list(TABLE1)
    for row in rows:
        got = (row.poor_share_c1, row.poor_quality, row.rich_quality,
               row.total_quality, row.poor_share_of_quality)
        assert got == pytest.approx(TABLE1[row.scenario], rel=0, abs=1e-12), row.scenario


def test_policy_table_values():
    rows = bm.policy_table()
    assert [row.policy for row in rows] == list(TABLE2)
    for row in rows:
        got = (row.poor_share_n1, row.poor_share_c1)
        assert got == pytest.approx(TABLE2[row.policy], rel=0, abs=1e-12), row.policy
