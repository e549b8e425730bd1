import numpy as np
import pytest

from dispflow.cli import main
from dispflow.fileio import read_csv, read_image


def run(*args):
    return main(list(args))


class TestPhantomVerb:
    def test_writes_pgm(self, tmp_path):
        out = tmp_path / "ph.pgm"
        assert run("phantom", "--n=32", f"--out={out}") == 0
        assert read_image(out).shape == (32, 32)

    def test_bad_variant_exits_nonzero(self, tmp_path, capsys):
        rc = run("phantom", "--variant=bogus", f"--out={tmp_path / 'x.pgm'}")
        assert rc != 0
        assert "error" in capsys.readouterr().err


class TestSinogramVerbs:
    def test_sinogram_default_phantom(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sinogram", "--n=32", "--angle-step=pi/30", f"--out={out}") == 0
        s = read_csv(out)
        assert s.shape[0] == 30  # one row per angle
        assert s.shape[1] % 2 == 1 and s.shape[1] > 32  # odd offset grid covering the square

    def test_sinogram_from_file(self, tmp_path):
        ph = tmp_path / "ph.csv"
        run("phantom", "--n=32", f"--out={ph}")
        out = tmp_path / "s.csv"
        assert run("sinogram", f"--in={ph}", "--angle-step=pi/15", f"--out={out}") == 0
        assert read_csv(out).shape[0] == 15

    def test_perturb_seed_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["--n=32", "--angle-step=pi/18", "--a=pi/18", "--noise=0.01", "--seed=7"]
        assert run("perturb", *args, f"--out={a}") == 0
        assert run("perturb", *args, f"--out={b}") == 0
        assert np.array_equal(read_csv(a).values, read_csv(b).values)

    def test_perturb_differs_from_clean(self, tmp_path):
        clean = tmp_path / "c.csv"
        pert = tmp_path / "p.csv"
        run("sinogram", "--n=32", "--angle-step=pi/18", f"--out={clean}")
        run("perturb", "--n=32", "--angle-step=pi/18", "--a=pi/18", f"--out={pert}")
        assert not np.array_equal(read_csv(clean).values, read_csv(pert).values)


    @pytest.mark.parametrize("arg", ["--noise=-0.5", "--a=-0.1"])
    def test_perturb_negative_setting_fails(self, tmp_path, capsys, arg):
        out = tmp_path / "p.csv"
        assert run("perturb", "--n=32", "--angle-step=pi/18", arg, f"--out={out}") == 1
        err = capsys.readouterr().err
        assert "must be non-negative" in err and err.count("\n") == 1
        assert not out.exists()


class TestFlowVerb:
    def test_flow_smooths(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "in.csv"
        from dispflow.fileio import write_csv
        from dispflow.grid import ScalarField

        write_csv(src, ScalarField(rng.standard_normal((16, 16)), 1.0, 1.0))
        out = tmp_path / "out.csv"
        res = tmp_path / "res.csv"
        rc = run(
            "flow", f"--in={src}", "--axis=X1", "--k=1", "--p=2", "--q=2",
            "--t-end=0.5", f"--out={out}", f"--residuals={res}",
        )
        assert rc == 0
        before = read_csv(src).values
        after = read_csv(out).values
        assert np.var(after) < np.var(before)
        lines = res.read_text().strip().split("\n")
        assert lines[0] == "step,rhs_linf"

    def test_bad_flow_params(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("1,2\n3,4\n")
        rc = run("flow", f"--in={src}", "--k=3", "--t-end=1e-3",
                 f"--out={tmp_path / 'o.csv'}")
        assert rc != 0

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("1,2\n3,4\n")
        rc = run("flow", f"--in={src}", "--axis=X3", "--t-end=1e-3",
                 f"--out={tmp_path / 'o.csv'}")
        assert rc == 1
        assert capsys.readouterr().err == "dispflow: error: unknown axis 'X3'\n"
        assert not (tmp_path / "o.csv").exists()

    def test_residuals_match_experiment(self, tmp_path):
        cfg = tmp_path / "strip.cfg"
        cfg.write_text(
            "[experiment]\ninput = strip\ncorrection = flow\n"
            f"outdir = {tmp_path / 'exp'}\n"
            "[image]\nn = 16\nstrip_width = 3\namplitude = 1\ndx1 = 1\ndx2 = 1\n"
            "[flow]\naxis = X1\nk = 1\np = 2\nq = 2\nt_end = 1\n"
        )
        run("experiment", f"--config={cfg}")
        exp = tmp_path / "exp"
        res = tmp_path / "res.csv"
        rc = run("flow", f"--in={exp / 'input.csv'}", "--axis=X1", "--k=1",
                 "--p=2", "--q=2", "--t-end=1", f"--out={tmp_path / 'o.csv'}",
                 f"--residuals={res}")
        assert rc == 0
        expected = (exp / "flow_residuals.csv").read_bytes()
        assert len(expected.splitlines()) > 2
        assert res.read_bytes() == expected


class TestVarsolveVerb:
    def test_trace_header(self, tmp_path):
        rng = np.random.default_rng(1)
        from dispflow.fileio import write_csv
        from dispflow.grid import ScalarField

        src = tmp_path / "in.csv"
        write_csv(src, ScalarField(rng.standard_normal((12, 8)), 1.0, 1.0))
        out = tmp_path / "o.csv"
        tr = tmp_path / "t.csv"
        rc = run("varsolve", f"--in={src}", "--axis=X1", "--p=2",
                 "--alpha=0.5", "--m=5", f"--out={out}", f"--trace={tr}")
        assert rc == 0
        lines = tr.read_text().strip().split("\n")
        assert lines[0] == "m,Fc,R,du_l2,grad_linf"
        assert len(lines) >= 2

    def test_non_finite_setting_is_one_line(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("1,2\n3,4\n5,6\n")
        rc = run("varsolve", f"--in={src}", "--eps=inf", f"--out={tmp_path / 'o.csv'}")
        assert rc == 1
        assert capsys.readouterr().err == "dispflow: error: eps must be finite, got inf\n"
        assert not (tmp_path / "o.csv").exists()

    def test_cfl_not_accepted(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("varsolve", f"--in={tmp_path / 'in.csv'}", "--cfl=0.3",
                f"--out={tmp_path / 'o.csv'}")
        assert exc.value.code == 2
        assert "unrecognized arguments: --cfl=0.3" in capsys.readouterr().err


class TestDiscreteVerbs:
    @pytest.mark.parametrize("verb", ["jitter", "assign"])
    def test_shift_csv_format(self, tmp_path, verb):
        from dispflow.fileio import write_csv
        from dispflow.grid import ScalarField

        rng = np.random.default_rng(2)
        src = tmp_path / "in.csv"
        write_csv(src, ScalarField(rng.standard_normal((16, 8)), 1.0, 1.0))
        out = tmp_path / "o.csv"
        sh = tmp_path / "s.csv"
        rc = run(verb, f"--in={src}", "--M=4", f"--out={out}", f"--shifts={sh}")
        assert rc == 0
        lines = sh.read_text().strip().split("\n")
        assert lines[0] == "index,shift"


class TestFBPAndMetrics:
    def test_fbp_round_trip(self, tmp_path):
        sino = tmp_path / "s.csv"
        run("sinogram", "--n=32", "--angle-step=pi/45", f"--out={sino}")
        rec = tmp_path / "r.csv"
        assert run("fbp", f"--in={sino}", "--n-out=32", f"--out={rec}") == 0
        assert read_csv(rec).shape == (32, 32)

    def test_metrics_output(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        run("phantom", "--n=16", f"--out={a}")
        assert run("metrics", f"--a={a}", f"--b={a}") == 0
        out = capsys.readouterr().out
        assert "rmse=0" in out

    def test_metrics_shape_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("1,2\n3,4\n")
        b.write_text("1,2,3\n")
        assert run("metrics", f"--a={a}", f"--b={b}") != 0


class TestTopLevel:
    def test_no_verb_errors(self, capsys):
        with pytest.raises(SystemExit):
            run()

    def test_malformed_csv_header_is_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# dispflow spacing 0.1\n1,2\n3,4\n")
        assert run("fbp", f"--in={bad}", f"--out={tmp_path / 'o.csv'}") != 0
        assert capsys.readouterr().err == (
            "dispflow: error: malformed dispflow comment in CSV header: '# dispflow spacing 0.1'\n"
        )

    def test_missing_input_file(self, tmp_path, capsys):
        rc = run("fbp", "--in=/nonexistent/x.csv", f"--out={tmp_path / 'o.csv'}")
        assert rc != 0
        assert "error" in capsys.readouterr().err
