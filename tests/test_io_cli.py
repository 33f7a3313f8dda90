import io
import json
import math

import numpy as np
import pytest

from bandrec import ALL_HYPOTHESES, MassiveSineBand, Statistics, Twist, ValidationError
from bandrec.bands import FourierBand
from bandrec.cli import main
from bandrec.riemann import EnergySeries, synth_energy_series
from bandrec.seriesio import (
    band_from_dict,
    parse_band_spec,
    parse_sizes,
    read_band_json,
    read_energy_csv,
    write_band_samples_csv,
    write_energy_csv,
)

from band_reference import cosine_series, evaluate
from ed_helpers import traced_peak


class TestEnergyCsv:
    def test_round_trip_exact_values(self):
        series = EnergySeries(nu=1.0, model="heisenberg")
        values = [-1.5, -2.0 / 3.0, -0.1234567890123456789, 1e-17, -7.142296360616768]
        for L, E in enumerate(values, start=2):
            series.add(L, Twist.PBC, E)
        series.add(2, Twist.ABC, -0.5)
        buf = io.StringIO()
        write_energy_csv(series, buf)
        back = read_energy_csv(io.StringIO(buf.getvalue()))
        for L, twist, E in series.items():
            assert back.E(L, twist) == E  # bit-exact through 17 significant digits
        assert back.nu == 1.0
        assert back.model == "heisenberg"

    def test_metadata_comments(self):
        text = "# model=dimerized\n# nu=3\n# e_inf=-0.45\nL,twist,E_total\n2,pbc,-1.5\n"
        series = read_energy_csv(io.StringIO(text))
        assert series.model == "dimerized"
        assert series.nu == 3.0
        assert series.e_inf == -0.45

    @pytest.mark.parametrize(
        "text",
        [
            "L,twist,E\n2,pbc,-1.5\n",  # bad header
            "L,twist,E_total\n2,xbc,-1.5\n",  # bad twist
            "L,twist,E_total\n2,pbc,-1.5\n2,pbc,-1.5\n",  # duplicate
            "L,twist,E_total\nx,pbc,-1.5\n",  # bad size
            "L,twist,E_total\n2,pbc,nan\n",  # non-finite
            "# only a comment\n",  # empty
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            read_energy_csv(io.StringIO(text))


class TestBandJson:
    def test_sampled_form_consistent_with_coefficients(self):
        band = FourierBand(1.2, [0.3, -0.1, 0.02])
        buf = io.StringIO()
        write_band_samples_csv(band, buf, 64)
        rows = buf.getvalue().strip().splitlines()[1:]
        assert len(rows) == 64
        for row in rows:
            k_str, v_str = row.split(",")
            assert abs(float(v_str) - evaluate(band, float(k_str))) < 1e-9

    def test_samples_of_a_long_series_take_no_dense_table(self, tmp_path):
        # a dense cos(n*k) table would hold 1024 x 16384 doubles (134 MB)
        band = FourierBand(2.0, np.random.default_rng(5).standard_normal(1024) / 1024)
        path = tmp_path / "samples.csv"
        with open(path, "w") as fh:
            _, peak = traced_peak(lambda: write_band_samples_csv(band, fh, 16384))
        assert peak < 4 * 2**20, peak
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (16384, 2)
        assert np.array_equal(rows[:, 0], np.linspace(0.0, 2.0 * np.pi, 16384, endpoint=False))
        some = rows[::97]
        assert np.allclose(some[:, 1], cosine_series(band.c0, band.coeffs, some[:, 0]), atol=1e-14)

    def test_band_round_trip(self):
        entry = {
            "c0": 0.5,
            "coeffs": [0.25, 0.0, -0.125],
            "undetermined_a1": False,
        }
        band = band_from_dict(entry)
        assert band.c0 == 0.5
        assert band.coeffs[2] == -0.125


class TestParsers:
    def test_parse_sizes(self):
        assert parse_sizes("8") == (8,)
        assert parse_sizes("2:6") == (2, 3, 4, 5, 6)
        assert parse_sizes("2:16:2") == (2, 4, 6, 8, 10, 12, 14, 16)
        assert parse_sizes("4,2,8") == (2, 4, 8)

    @pytest.mark.parametrize("bad", ["", "0:4", "5:2", "2:8:0", "a:b", "0", "0,2", "4,-2"])
    def test_parse_sizes_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_sizes(bad)

    def test_parse_band_specs(self):
        band = parse_band_spec("massive-sine:J=2,m=0.1")
        assert band.evaluate(np.pi) == pytest.approx(2 * math.sqrt(1 + 0.01))
        band = parse_band_spec("abs-sine:amplitude=1.5")
        assert band.evaluate(np.pi / 2) == pytest.approx(1.5)
        band = parse_band_spec("constant:c0=3")
        assert evaluate(band, 1.0) == pytest.approx(3.0)
        band = parse_band_spec("fourier:c0=1,coeffs=0.5;0;-0.25")
        assert band.coeffs.tolist() == [0.5, 0.0, -0.25]

    @pytest.mark.parametrize("bad", ["gauss:s=1", "massive-sine:J", "abs-sine:amplitude=x"])
    def test_parse_band_spec_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_band_spec(bad)


class TestCli:
    def test_ed_row_count_and_values(self, tmp_path):
        out = tmp_path / "heis.csv"
        code = main(
            ["ed", "--model", "heisenberg", "--J", "1", "--sizes", "2:6:2", "--out", str(out)]
        )
        assert code == 0
        series = read_energy_csv(open(out))
        assert series.sizes(Twist.PBC) == (2, 4, 6)
        assert series.E(2, Twist.PBC) == pytest.approx(-1.5, abs=1e-12)
        assert series.E(4, Twist.PBC) == pytest.approx(-2.0, abs=1e-10)

    def test_ed_single_ion_row_count(self, tmp_path):
        out = tmp_path / "si.csv"
        code = main(
            ["ed", "--model", "single-ion", "--J", "1", "--D", "7.4", "--sizes", "2:6", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        data_rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data_rows) - 1 == 5  # header + one row per size 2..6

    def test_ed_rejects_odd_spin_half_size(self, tmp_path, capsys):
        code = main(["ed", "--model", "heisenberg", "--sizes", "3"])
        assert code == 2
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, message",
        [
            (["heisenberg", "--sizes", "32"], "L=32: 4963760640 lower-triangle pairs"),
            (["single-ion", "--D", "1", "--sizes", "20"], "L=20: 3462993240 lower-triangle pairs"),
        ],
    )
    def test_ed_refuses_a_sector_beyond_int32_offsets(self, model, message, capsys):
        assert main(["ed", "--model", *model]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, nu",
        [
            (["heisenberg"], "1"),
            (["dimerized", "--delta", "0.048"], "3"),
            (["single-ion", "--D", "7.4"], "2"),
        ],
    )
    def test_ed_writes_model_and_nu_header(self, model, nu, capsys):
        assert main(["ed", "--model", *model, "--sizes", "2:4:2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"# model={model[0]}" in lines
        assert f"# nu={nu}" in lines

    @pytest.mark.parametrize(
        "args",
        [
            ["--model", "heisenberg", "--delta", "0.3"],
            ["--model", "heisenberg", "--D", "5"],
            ["--model", "single-ion", "--D", "5", "--delta", "0.3"],
            ["--model", "dimerized", "--delta", "0.3", "--D", "5"],
        ],
    )
    def test_ed_rejects_a_parameter_the_model_does_not_take(self, args, capsys):
        assert main(["ed", *args, "--sizes", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "takes no" in captured.err

    @pytest.mark.parametrize("model, flag", [("dimerized", "--delta"), ("single-ion", "--D")])
    def test_ed_requires_the_model_parameter(self, model, flag, capsys):
        assert main(["ed", "--model", model, "--sizes", "4"]) == 2
        assert f"{flag} is required" in capsys.readouterr().err

    def test_ed_maps_an_unconverged_solve_to_exit_3(self, monkeypatch, capsys):
        # every sector is replaced by a spectrum on which the Lanczos
        # iteration ends at a wrong energy; the solver must refuse it
        from bandrec import lanczos, spinchain

        diag = np.concatenate(([-1.0], np.linspace(0.0, 1.0, 298), [1e14]))
        monkeypatch.setattr(
            spinchain,
            "lowest_eigenpair",
            lambda matvec, dim, seed, start_weights: lanczos.lowest_eigenpair(
                lambda x: diag * x, diag.size, seed, lambda: np.ones(diag.size)
            ),
        )
        assert main(["ed", "--model", "heisenberg", "--sizes", "4"]) == 3
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["--model", "heisenberg", "--J", "1e200", "--sizes", "10"],
         ["--model", "single-ion", "--D", "1e308", "--sizes", "4"]],
        ids=["J-1e200", "D-1e308"],
    )
    def test_ed_names_an_overflow_with_exit_3(self, args, tmp_path, capsys):
        # the first Lanczos step overflows; LAPACK never sees the NaNs
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["ed", *args, "--out", str(tmp_path / "ed.csv")]) == 3
        err = capsys.readouterr().err
        assert "Lanczos step 1 overflowed" in err and "LAPACK" not in err

    def test_ed_stops_at_the_largest_failing_size(self, monkeypatch, capsys):
        # L=4 and L=8 (dims 6 and 70) are replaced by wide spectra on which
        # the solve runs the full basis and refuses the Ritz pair; sizes are
        # solved largest first, so the message is L=8's and L=4 never runs
        from bandrec import lanczos, spinchain

        dims = []

        def solve(matvec, dim, seed, start_weights):
            dims.append(dim)
            diag = np.concatenate(([-1.0], np.linspace(0.0, 1.0, dim - 2), [1e14]))
            return lanczos.lowest_eigenpair(lambda x: diag * x, dim, seed, lambda: np.ones(dim))

        monkeypatch.setattr(spinchain, "lowest_eigenpair", solve)
        assert main(["ed", "--model", "heisenberg", "--sizes", "4,8"]) == 3
        assert "did not converge in 70 iterations" in capsys.readouterr().err
        assert dims == [70]

    def test_ed_builds_the_largest_size_first_with_the_bytes_of_single_size_runs(
        self, tmp_path, monkeypatch
    ):
        from bandrec import spinchain

        built = []
        build = spinchain.build_hamiltonian

        def record(spec, L, sector):
            built.append(L)
            return build(spec, L, sector)

        monkeypatch.setattr(spinchain, "build_hamiltonian", record)
        args = ["ed", "--model", "single-ion", "--D", "7.4", "--twist", "both", "--seed", "3"]
        assert main(args + ["--sizes", "2:13", "--out", str(tmp_path / "all.csv")]) == 0
        assert built == list(range(13, 1, -1))
        head, rows = [], {"pbc": [], "abc": []}  # rows of the single-size runs
        for L in range(2, 14):
            path = tmp_path / f"{L}.csv"
            assert main(args + ["--sizes", str(L), "--out", str(path)]) == 0
            lines = path.read_bytes().splitlines(keepends=True)
            head = [line for line in lines if not line[:1].isdigit()]
            for line in lines[len(head):]:
                rows[line.split(b",")[1].decode()].append(line)
        assert [len(r) for r in rows.values()] == [12, 12]
        assembled = b"".join(head + rows["pbc"] + rows["abc"])
        assert (tmp_path / "all.csv").read_bytes() == assembled

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--model", "heisenberg", "--seed", "-1"], "seed must be a non-negative integer"),
            (["--model", "single-ion", "--D", "inf"], "must be finite"),
            (["--model", "single-ion", "--D", "7.4", "--J", "nan"], "must be finite"),
        ],
    )
    def test_ed_rejects_a_bad_seed_or_parameter(self, args, message, capsys):
        assert main(["ed", *args, "--sizes", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize(
        "model",
        [["heisenberg"], ["dimerized", "--delta", "0.3"], ["single-ion", "--D", "7.4"]],
        ids=lambda m: m[0],
    )
    def test_ed_refuses_sizes_below_two(self, model, capsys):
        assert main(["ed", "--model", *model, "--sizes", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "sizes must be >= 2, got 1" in captured.err

    def test_ed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ed", "--model", "dimerized", "--delta", "0.2", "--sizes", "2:8:2", "--twist", "both"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_forward_row_count(self, tmp_path):
        out = tmp_path / "fwd.csv"
        code = main(
            [
                "forward", "--band", "massive-sine:J=1,m=0.1", "--statistics", "fermion",
                "--nu", "1", "--twist", "pbc", "--sizes", "1:64", "--out", str(out),
            ]
        )
        assert code == 0
        series = read_energy_csv(open(out))
        assert len(series.sizes(Twist.PBC)) == 64

    def test_forward_constant_band(self, tmp_path):
        out = tmp_path / "const.csv"
        main(
            [
                "forward", "--band", "constant:c0=2", "--statistics", "boson",
                "--nu", "2", "--sizes", "1:5", "--out", str(out),
            ]
        )
        series = read_energy_csv(open(out))
        for L in range(1, 6):
            assert series.e(L, Twist.PBC) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "band", ["constant:c0=1", "massive-sine:J=1,m=0.1", "fourier:c0=1,coeffs=0.5"]
    )
    def test_forward_rejects_sizes_below_one(self, band, capsys):
        args = ["forward", "--band", band, "--statistics", "boson", "--nu", "1"]
        assert main([*args, "--sizes", "0,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad size specification" in captured.err

    def test_pipeline_round_trip(self, tmp_path):
        energies = tmp_path / "abs.csv"
        bands = tmp_path / "band.json"
        main(
            [
                "forward", "--band", f"abs-sine:amplitude={math.pi/2}", "--statistics",
                "fermion", "--nu", "1", "--twist", "pbc", "--sizes", "1:16",
                "--out", str(energies),
            ]
        )
        code = main(
            [
                "reconstruct", "--energies", str(energies), "--nu", "1",
                "--hypothesis", "fermion-pbc", "--out", str(bands),
            ]
        )
        assert code == 0
        entry = read_band_json(open(bands))[0]
        band = band_from_dict(entry)
        source = parse_band_spec(f"abs-sine:amplitude={math.pi/2}")
        # data reproduced exactly; the band agrees up to the tail aliasing
        assert entry["l2_residual_forward"] < 1e-10
        k = np.linspace(0, 2 * np.pi, 257)
        assert np.max(np.abs(evaluate(band, k) - source.evaluate(k))) < 0.1

    def test_reconstruct_auto_emits_four_flagged_bands(self, tmp_path):
        energies = tmp_path / "heis.csv"
        bands = tmp_path / "bands.json"
        main(["ed", "--model", "heisenberg", "--sizes", "2:8:2", "--out", str(energies)])
        code = main(
            [
                "reconstruct", "--energies", str(energies),
                "--e-inf", repr(0.25 - math.log(2)), "--nu", "1",
                "--hypothesis", "auto", "--size-set", "even-only", "--out", str(bands),
            ]
        )
        assert code == 0
        entries = read_band_json(open(bands))
        assert len(entries) == 4
        assert all("admissible" in e for e in entries)

    @pytest.mark.parametrize("twist", ["pbc", "abc"])
    def test_reconstruct_reads_the_single_twist_of_a_series(self, tmp_path, twist):
        energies = tmp_path / "e.csv"
        main(
            [
                "forward", "--band", "massive-sine:J=1,m=0.3", "--statistics",
                "fermion", "--nu", "1", "--twist", twist, "--sizes", "1:12",
                "--out", str(energies),
            ]
        )
        outputs = []
        for extra in ([], ["--data-twist", twist]):
            bands = tmp_path / f"bands{len(extra)}.json"
            code = main(
                [
                    "reconstruct", "--energies", str(energies), "--nu", "1",
                    "--hypothesis", "auto", "--out", str(bands), *extra,
                ]
            )
            assert code == 0
            outputs.append(bands.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(read_band_json(io.BytesIO(outputs[0]))) == 4

    @pytest.mark.parametrize(
        "last_size", [{"pbc": 12}, {"abc": 12}, {"pbc": 16, "abc": 8}], ids=["pbc", "abc", "both"]
    )
    def test_single_hypothesis_writes_its_auto_entry(self, tmp_path, last_size):
        # the data twist belongs to the data: every hypothesis reads the same
        # energies, so an abc reading of pbc data, or of a series whose abc
        # sizes stop short, must not look for the hypothesis twist's entries
        band = MassiveSineBand(1.0, 0.3)
        series = EnergySeries(nu=1.0, e_inf=-0.5 * band.mean())
        for twist, last in last_size.items():
            synth = synth_energy_series(
                band, Statistics.FERMION, 1.0, Twist.parse(twist), range(1, last + 1)
            )
            for L, tw, E in synth.items():
                series.add(L, tw, E)
        energies = tmp_path / "e.csv"
        with open(energies, "w") as fh:
            write_energy_csv(series, fh)

        def reconstruct(hypothesis):
            out = tmp_path / f"{hypothesis}.json"
            argv = ["reconstruct", "--energies", str(energies), "--hypothesis", hypothesis]
            assert main([*argv, "--out", str(out)]) == 0
            return json.loads(out.read_text())

        auto = reconstruct("auto")
        assert len(auto) == len(ALL_HYPOTHESES)
        for hypothesis, entry in zip(ALL_HYPOTHESES, auto):
            assert reconstruct(hypothesis.label) == entry

    @pytest.mark.parametrize("present, asked", [("pbc", "abc"), ("abc", "pbc")])
    def test_reconstruct_names_a_missing_data_twist_and_its_file(
        self, present, asked, tmp_path, capsys
    ):
        energies = tmp_path / f"{present}_only.csv"
        main(
            [
                "forward", "--band", "massive-sine:J=1,m=0.3", "--statistics", "fermion",
                "--nu", "1", "--twist", present, "--sizes", "1:8", "--out", str(energies),
            ]
        )
        out = tmp_path / "bands.json"
        code = main(
            [
                "reconstruct", "--energies", str(energies), "--e-inf", "-0.5",
                "--data-twist", asked, "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {energies} holds no {asked} energies\n"
        assert not out.exists()

    def test_reconstruct_requires_e_inf(self, tmp_path, capsys):
        energies = tmp_path / "e.csv"
        main(["ed", "--model", "heisenberg", "--sizes", "2:4:2", "--out", str(energies)])
        code = main(["reconstruct", "--energies", str(energies), "--nu", "1"])
        assert code == 2
        assert "e-inf" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_reconstruct_rejects_fewer_than_one_sample(self, samples, tmp_path, capsys):
        energies = tmp_path / "e.csv"
        main(
            [
                "forward", "--band", "constant:c0=1", "--statistics", "boson", "--nu", "1",
                "--sizes", "1:4", "--out", str(energies),
            ]
        )
        samples_out = tmp_path / "samples.csv"
        code = main(
            [
                "reconstruct", "--energies", str(energies), "--e-inf", "0.5",
                "--samples", samples, "--samples-out", str(samples_out),
            ]
        )
        assert code == 2
        assert "--samples must be >= 1" in capsys.readouterr().err
        assert not samples_out.exists()

    def test_criterion_json(self, tmp_path):
        energies = tmp_path / "both.csv"
        out = tmp_path / "crit.json"
        main(
            [
                "forward", "--band", "massive-sine:J=1,m=0.5", "--statistics", "fermion",
                "--nu", "1", "--twist", "pbc", "--sizes", "1:8", "--out", str(energies),
            ]
        )
        # append the abc data to the same file
        series = read_energy_csv(open(energies))
        from bandrec import Statistics, synth_energy_series
        from bandrec.seriesio import write_energy_csv

        abc = synth_energy_series(
            parse_band_spec("massive-sine:J=1,m=0.5"), Statistics.FERMION, 1.0, Twist.ABC, range(1, 9)
        )
        for L in abc.sizes(Twist.ABC):
            series.add(L, Twist.ABC, abc.E(L, Twist.ABC))
        with open(energies, "w") as fh:
            write_energy_csv(series, fh)

        code = main(["criterion", "--energies", str(energies), "--json", "--out", str(out)])
        assert code == 0
        report = json.load(open(out))
        assert report["max_relative_defect"] <= 1e-12

    def test_convergence_output_decreases(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--mass", "0.1", "--sizes", "4:20", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        errs = [float(r.split(",")[1]) for r in rows]
        assert len(errs) == 17
        assert errs[-1] < errs[0]

    def test_kernel_table(self, capsys):
        code = main(["kernel", "--max", "8"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,moebius,mertens,b_pbc,b_abc"
        assert lines[1] == "1,1,1,1,-1"
        assert lines[4] == "4,0,-1,0,-2"

    def test_missing_file_exit_code(self, capsys):
        assert main(["criterion", "--energies", "/nonexistent/file.csv"]) == 2
