"""CLI commands and the public package surface."""

import json
import re

import pytest

import repro
from repro.cli import _load_fleet, build_parser, main


class TestPublicApi:
    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_quickstart_surface(self):
        db = repro.tpch_database(0.002, repro.mysql_profile())
        runner = repro.WorkloadRunner(db, repro.default_system())
        curve = repro.PvcSweep(
            runner, [repro.selection_query(1)]
        ).run()
        assert len(curve.all_points) == 7


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["pvc", "--profile", "mysql",
                                  "--sf", "0.01"])
        assert args.profile == "mysql"
        assert args.sf == 0.01

    def test_table1_command(self, capsys):
        status = main(["table1"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Table 1" in out
        assert "69.3" in out

    def test_disk_command(self, capsys):
        status = main(["disk"])
        assert status == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_qed_command_small(self, capsys):
        status = main(["qed", "--sf", "0.05", "--batches", "35", "50"])
        out = capsys.readouterr().out
        assert status == 0
        assert "batch 35" in out and "batch 50" in out

    def test_pvc_command_small(self, capsys):
        status = main(["pvc", "--profile", "mysql", "--sf", "0.01"])
        assert status == 0
        assert "mysql" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])


CRASH = {"kind": "crash", "node": "node00"}


class TestFaultPlanDocuments:
    """``FaultPlan.from_dict``: a malformed plan names the field path,
    the offending value and what was expected."""

    @pytest.mark.parametrize("doc, count", [
        ({}, 0),                                          # empty document
        ({"faults": []}, 0),                              # empty list
        ({"faults": [dict(CRASH, at_s=0)]}, 1),           # edge: t = 0
        ({"faults": [dict(CRASH, at_s=1, recover_s=None)]}, 1),  # null ok
    ])
    def test_accepts(self, doc, count):
        from repro.cluster import FaultPlan

        assert len(FaultPlan.from_dict(doc).specs) == count

    @pytest.mark.parametrize("doc, message", [
        # negative
        ({"faults": [dict(CRASH, at_s=-1)]},
         "faults[0]: crash at_s must be non-negative"),
        # wrong type
        ({"faults": [dict(CRASH, at_s="soon")]},
         "faults[0].at_s: expected a finite number, got 'soon'"),
        ({"faults": [dict(CRASH, at_s=True)]},
         "faults[0].at_s: expected a finite number, got True"),
        ({"faults": [dict(CRASH, at_s=None)]},
         "faults[0].at_s: expected a finite number, got None"),
        ({"faults": [dict(CRASH, at_s=float("nan"))]},
         "faults[0].at_s: expected a finite number, got nan"),
        ({"faults": [dict(CRASH, recover_s=[2])]},
         "faults[0].recover_s: expected a finite number or null, got [2]"),
        ({"faults": [{"kind": "crash"}]},
         "faults[0].node: expected a string, got None"),
        ({"seed": "7"}, "seed: expected an integer, got '7'"),
        # wrong document shape
        ([CRASH], "fault plan: expected an object"),
        ({"faults": CRASH}, "faults: expected a list of faults"),
        ({"faults": ["crash"]},
         "faults[0]: expected a fault object, got 'crash'"),
    ])
    def test_rejects(self, doc, message):
        from repro.cluster import FaultPlan

        with pytest.raises(ValueError, match=re.escape(message)):
            FaultPlan.from_dict(doc)


class TestFleetDocuments:
    """``--fleet`` files: a malformed description names the field path,
    the offending value and what was expected."""

    @staticmethod
    def _write(tmp_path, doc):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_edge_value_accepted(self, tmp_path):
        specs = _load_fleet(self._write(
            tmp_path, {"groups": [{"count": 1, "wake_latency_s": 0}]}
        ))
        assert len(specs) == 1 and specs[0].wake_latency_s == 0.0

    @pytest.mark.parametrize("doc, message", [
        # empty
        ({}, "a fleet needs at least one node group"),
        ({"groups": []}, "a fleet needs at least one node group"),
        # negative
        ({"groups": [{"count": -1}]},
         "groups[0]: a node group needs at least one node"),
        ({"groups": [{"count": 1, "capacity": -2}]},
         "capacity must be positive"),
        # wrong type
        ({"groups": [{"count": "two"}]},
         "groups[0].count: expected a finite number, got 'two'"),
        ({"groups": [{}]},
         "groups[0].count: expected a finite number, got None"),
        ({"groups": [{"count": 1, "capacity": None}]},
         "groups[0].capacity: expected a finite number, got None"),
        # wrong document shape
        ([{"count": 2}], "fleet: expected an object"),
        ({"groups": {"count": 2}}, "groups: expected a list of node groups"),
        ({"groups": [2]}, "groups[0]: expected a group object, got 2"),
        # out of bounds, named by field path
        ({"groups": [{"count": 1}, {"count": 1, "capacity": 0}]},
         "groups[1].capacity: capacity must be positive, got 0"),
        ({"groups": [{"count": 1, "sleep_wall_w": -1}]},
         "groups[0].sleep_wall_w: sleep_wall_w must be non-negative, "
         "got -1"),
        ({"groups": [{"count": 1, "wake_latency_s": -0.5}]},
         "groups[0].wake_latency_s: wake_latency_s must be non-negative, "
         "got -0.5"),
    ])
    def test_rejects(self, tmp_path, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _load_fleet(self._write(tmp_path, doc))


class TestClusterInputErrors:
    """Bad ``repro cluster`` input prints one ``error:`` line and
    exits 2 (before any database is built)."""

    @pytest.mark.parametrize("flag, doc, message", [
        ("--sla", -2, "--sla must be non-negative, got -2"),
        ("--sla", "nan", "--sla must be non-negative, got nan"),
        ("--window", 0, "--window must be positive, got 0"),
        ("--window", "nan", "--window must be positive, got nan"),
        ("--fleet", [{"count": 2}], "fleet: expected an object"),
        ("--faults", {"faults": [dict(CRASH, at_s="soon")]},
         "faults[0].at_s: expected a finite number, got 'soon'"),
        ("--arrivals", -5, "--arrivals must be non-negative, got -5"),
        ("--distinct", 0, "--distinct must be in 1..50, got 0"),
        ("--distinct", 51, "--distinct must be in 1..50, got 51"),
    ])
    def test_one_error_line(self, tmp_path, capsys, flag, doc, message):
        value = str(doc)
        if isinstance(doc, (dict, list)):
            value = str(tmp_path / "doc.json")
            (tmp_path / "doc.json").write_text(json.dumps(doc))
        status = main(["cluster", "--sf", "0.002", flag, value])
        err = capsys.readouterr().err.strip().splitlines()
        assert status == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]

    def test_zero_arrivals_is_an_empty_run(self, capsys):
        assert main(["cluster", "--sf", "0.002", "--arrivals", "0"]) == 0
        assert "served 0, shed 0" in capsys.readouterr().out
