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


    @pytest.mark.parametrize("verb", ["sinogram", "perturb"])
    @pytest.mark.parametrize("step", ["0", "nan", "inf", "-0.1", "4", "5e-324"])
    def test_angle_step_without_two_angles_is_one_line(self, tmp_path, capsys, verb, step):
        # 4 wrote a one-row sinogram; the others failed with unrelated messages
        out = tmp_path / "s.csv"
        assert run(verb, "--n=16", f"--angle-step={step}", f"--out={out}") == 1
        assert capsys.readouterr().err == (
            "dispflow: error: angle_step must give at least two angles in [0, pi), "
            f"got {float(step)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("arg", ["--noise=-0.5", "--a=-0.1", "--a=nan", "--a=inf",
                                     "--noise=nan", "--noise=inf"])
    def test_perturb_negative_setting_fails(self, tmp_path, capsys, arg):
        # NaN wrote the sinogram without the jitter or the noise
        key, value = arg[2:].split("=")
        out = tmp_path / "p.csv"
        assert run("perturb", "--n=32", "--angle-step=pi/18", arg, f"--out={out}") == 1
        assert capsys.readouterr().err == (
            f"dispflow: error: {key} must be non-negative and finite, got {float(value)}\n"
        )
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

    def test_bad_spacing_is_one_line(self, tmp_path, capsys):
        # read as dx1 = 1/3 and dx2 = nan, and the flow exited 0
        src, out = tmp_path / "s.csv", tmp_path / "o.csv"
        src.write_text("# dispflow spacing -1 nan\n1,2\n3,4\n5,6\n")
        assert run("flow", f"--in={src}", "--t-end=1e-3", f"--out={out}") == 1
        assert capsys.readouterr().err == (
            "dispflow: error: dx1 must be non-negative and finite, got -1.0\n")
        assert not out.exists()

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("1,2\n3,4\n")
        rc = run("flow", f"--in={src}", "--axis=X3", "--t-end=1e-3",
                 f"--out={tmp_path / 'o.csv'}")
        assert rc == 1
        assert capsys.readouterr().err == "dispflow: error: [flow] axis: unknown axis 'X3'\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("args,msg", [
        (["flow", "--k=1.5", "--t-end=1"], "[flow] k: invalid literal for int() with base 10: '1.5'"),
        (["varsolve", "--m=many"], "[varsolve] m_max: invalid literal for int() with base 10: 'many'"),
        (["jitter", "--M=2.5"], "[discrete] m: invalid literal for int() with base 10: '2.5'"),
        (["fbp", "--n-out=big"], "[tomo] n_out: invalid literal for int() with base 10: 'big'"),
        (["sinogram", "--angle-step=pie"], "[tomo] angle_step: cannot parse angle 'pie'"),
    ])
    def test_malformed_value_names_section_and_key(self, tmp_path, capsys, args, msg):
        # were argparse's usage and exit 2 (typed flags) or named no key (angles)
        src = tmp_path / "in.csv"
        src.write_text("1,2\n3,4\n")
        assert run(*args, f"--in={src}", f"--out={tmp_path / 'o.csv'}") == 1
        assert capsys.readouterr().err == f"dispflow: error: {msg}\n"
        assert not (tmp_path / "o.csv").exists()


# verb: (config section, the same settings as flags, diagnostic flag and file)
CORRECTIONS = {
    "flow": ("[flow]\naxis = X2\nk = 2\np = 1\nq = 1\nbeta = 1e-4\ncfl = 0.4\nt_end = 0.02\n",
             ["--axis=X2", "--k=2", "--p=1", "--q=1", "--beta=1e-4", "--cfl=0.4", "--t-end=0.02"],
             "--residuals", "flow_residuals.csv"),
    "varsolve": ("[varsolve]\naxis = X1\nk = 1\np = 2\nq = 1\nalpha = 0.5\neps = 1e-2\n"
                 "beta = 1e-5\nm_max = 5\n",
                 ["--axis=X1", "--k=1", "--p=2", "--q=1", "--alpha=0.5", "--eps=1e-2",
                  "--beta=1e-5", "--m=5"],
                 "--trace", "trace.csv"),
    "jitter": ("[discrete]\nm = 3\nkorder = 2\n", ["--M=3", "--korder=2"],
               "--shifts", "shifts.csv"),
    "assign": ("[discrete]\nm = 8\nkorder = 2\n", ["--M=8", "--korder=2"],
               "--shifts", "shifts.csv"),
}


class TestCorrectionVerbsMatchExperiment:
    @pytest.mark.parametrize("given", [True, False], ids=["flags", "defaults"])
    @pytest.mark.parametrize("verb", CORRECTIONS)
    def test_same_output_and_diagnostic(self, tmp_path, verb, given):
        # without a flag a verb runs the schema's default: flow's t_end flag
        # is required, so "defaults" gives it and the config its value
        section, flags, diag_flag, diag_file = CORRECTIONS[verb]
        if not given:
            section, flags = ("[flow]\nt_end = 5\n", ["--t-end=5"]) if verb == "flow" else ("", [])
        cfg = tmp_path / "interface.cfg"
        cfg.write_text(
            f"[experiment]\ninput = interface\ncorrection = {verb}\noutdir = {tmp_path / 'exp'}\n"
            "[image]\nn = 16\namplitude = 1\ndx1 = 1\ndx2 = 1\n" + section
        )
        assert run("experiment", f"--config={cfg}") == 0
        exp, out, diag = tmp_path / "exp", tmp_path / "o.csv", tmp_path / "d.csv"
        assert run(verb, f"--in={exp / 'input.csv'}", *flags, f"--out={out}",
                   f"{diag_flag}={diag}") == 0
        expected = (exp / diag_file).read_bytes()
        assert len(expected.splitlines()) > 2
        assert diag.read_bytes() == expected
        assert out.read_bytes() == (exp / "output.csv").read_bytes()


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

    @pytest.mark.parametrize("verb,m", [("jitter", "99"), ("assign", "100")])
    def test_bound_is_checked_against_the_file(self, tmp_path, capsys, verb, m):
        # a config's default sinogram has 90 rows; the file has 100
        src, out = tmp_path / "p.csv", tmp_path / "o.csv"
        assert run("perturb", "--n=16", "--angle-step=pi/100", f"--out={src}") == 0
        assert run(verb, f"--in={src}", f"--M={m}", f"--out={out}") == 0
        assert run(verb, f"--in={src}", f"--M={int(m) + 1}", f"--out={tmp_path / 'x.csv'}") == 1
        assert "n1 = 100, got" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_assign_bad_order_is_one_line(self, tmp_path, capsys):
        # ran as k = 2 and exited 0
        src, out = tmp_path / "p.csv", tmp_path / "a.csv"
        assert run("perturb", "--n=32", "--angle-step=pi/24", f"--out={src}") == 0
        assert run("assign", f"--in={src}", "--korder=3", f"--out={out}") == 1
        assert capsys.readouterr().err == "dispflow: error: korder must be 1 or 2, got 3\n"
        assert not out.exists()


class TestFBPAndMetrics:
    def test_fbp_round_trip(self, tmp_path):
        sino = tmp_path / "s.csv"
        run("sinogram", "--n=32", "--angle-step=pi/45", f"--out={sino}")
        rec = tmp_path / "r.csv"
        assert run("fbp", f"--in={sino}", "--n-out=32", f"--out={rec}") == 0
        assert read_csv(rec).shape == (32, 32)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_fbp_non_finite_compensate_is_one_line(self, tmp_path, capsys, bad):
        sino = tmp_path / "s.csv"
        run("sinogram", "--n=16", "--angle-step=pi/8", f"--out={sino}")
        capsys.readouterr()
        out = tmp_path / "r.csv"
        assert run("fbp", f"--in={sino}", "--n-out=16", f"--compensate={bad}", f"--out={out}") == 1
        assert capsys.readouterr().err == "dispflow: error: backproject_angles must be finite\n"
        assert not out.exists()

    def test_fbp_default_step_is_the_file_spacing(self, tmp_path):
        # a sinogram at step 0.1 has 31 rows; pi/31 was used in its place
        sino = tmp_path / "s.csv"
        run("sinogram", "--n=16", "--angle-step=0.1", f"--out={sino}")
        auto, given = tmp_path / "auto.csv", tmp_path / "given.csv"
        assert run("fbp", f"--in={sino}", "--n-out=16", f"--out={auto}") == 0
        assert run("fbp", f"--in={sino}", "--n-out=16", "--angle-step=0.1", f"--out={given}") == 0
        assert auto.read_bytes() == given.read_bytes()

    @pytest.mark.parametrize("header", ["", "# dispflow spacing 1e-300 0.1\n",
                                        "# dispflow spacing 3.0 0.1\n"])
    def test_fbp_default_step_otherwise_is_pi_over_rows(self, tmp_path, header):
        # no spacing (a headerless CSV), one giving far more rows than the file
        # (its grid is never built) and one giving fewer than two rows
        sino = tmp_path / "s.csv"
        run("sinogram", "--n=16", "--angle-step=0.1", f"--out={sino}")
        bare = tmp_path / "bare.csv"
        bare.write_text(header + sino.read_text().split("\n", 1)[1])
        auto, given = tmp_path / "auto.csv", tmp_path / "given.csv"
        assert run("fbp", f"--in={bare}", "--n-out=16", f"--out={auto}") == 0
        assert run("fbp", f"--in={bare}", "--n-out=16", "--angle-step=pi/31", f"--out={given}") == 0
        assert auto.read_bytes() == given.read_bytes()

    @pytest.mark.parametrize("step,msg", [
        ("0", "angles must be strictly increasing"),  # was read as no step
        ("-0.1", "angles must be strictly increasing"),
        ("nan", "angles must lie in [0, pi)"),  # was "backproject_angles must be finite"
        ("1", "angles must lie in [0, pi)"),
        # was read as rows pi/16 apart over [0, pi/2), with pi/16 weights
        ("pi/16", "angle step 0.19634954084936207 gives 16 angles, the file has 8 rows"),
    ])
    def test_fbp_bad_angle_step_is_one_line(self, tmp_path, capsys, step, msg):
        sino = tmp_path / "s.csv"
        run("sinogram", "--n=16", "--angle-step=pi/8", f"--out={sino}")
        capsys.readouterr()
        out = tmp_path / "r.csv"
        assert run("fbp", f"--in={sino}", "--n-out=16", f"--angle-step={step}", f"--out={out}") == 1
        assert capsys.readouterr().err == f"dispflow: error: {msg}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("text,msg", [
        ("[flow]\nt-end = 5\n", "unknown key 't-end' in [flow]"),
        ("[flow]\nk = 1.5\n", "[flow] k: invalid literal for int() with base 10: '1.5'"),
        ("[tomo]\nangle_step = 0\n",
         "angle_step must give at least two angles in [0, pi), got 0.0"),
        ("[flow]\nt_end = nan\n", "t_end must be non-negative and finite, got nan"),
        ("[flow]\nt_end = inf\n", "t_end must be non-negative and finite, got inf"),
        ("[flow]\nt_end = -1\n", "t_end must be non-negative and finite, got -1.0"),
        ("[varsolve]\nm_max = 0\n", "m_max must be at least 1, got 0"),
        ("[tomo]\nfilter = foo\n", "unknown filter 'foo'"),
        ("[tomo]\nn_out = 8\n", "n_out must be at least 16, got 8"),
        ("[tomo]\nn = 8\n", "n must be at least 16, got 8"),
        ("[tomo]\nvariant = foo\n", "unknown phantom variant 'foo'"),
        ("correction = assign\n[discrete]\nm = 0\n", "m must be at least 1, got 0"),
        ("[discrete]\nkorder = 3\n", "korder must be 1 or 2, got 3"),
        ("input = strip\n[image]\nstrip_width = 100\n",
         "strip_width must lie in [1, n - 2] = [1, 62], got 100"),
        ("input = strip\n[image]\nstrip_width = 0\n",
         "strip_width must lie in [1, n - 2] = [1, 62], got 0"),
        ("[image]\ndx1 = -0.1\n", "dx1 must be non-negative and finite, got -0.1"),
        ("[image]\ndx1 = nan\n", "dx1 must be non-negative and finite, got nan"),
        ("[image]\ndx1 = inf\n", "dx1 must be non-negative and finite, got inf"),
        ("input = interface\ncorrection = flow\n[image]\nn = 2\n",
         "axis X1 has 2 samples, need at least 3 for the (k=1, p=2) flow along X1"),
        ("correction = assign\n[tomo]\nn = 32\nangle_step = pi/24\n[discrete]\nm = 200\n",
         "M must not exceed the field's samples along x1, n1 = 24, got 200"),
        # the three below fail in their stage, after the input or the sinogram is built
        ("input = strip\ncorrection = flow\n[image]\nn = 16\ndx1 = 1e100\ndx2 = 1e100\n"
         "[flow]\nk = 2\n",
         "grid spacing 1e+100 along X1 is too large for the k=2 flow: its CFL bound's dx^4 overflows"),
        ("input = strip\ncorrection = flow\n[image]\ndx1 = 1e-100\ndx2 = 1e-100\n[flow]\nk = 2\n",
         "non-finite rhs at step 0"),
        # the p=1 lagged iteration stalls on this noisy sinogram; once the
        # p=1 solver converges here (ROADMAP item 6), replace this case with
        # another that fails in its stage
        ("correction = varsolve\n[tomo]\nn = 32\nangle_step = pi/45\na = pi/30\nnoise = 0.01\n"
         "seed = 3\nvariant = standard\n[varsolve]\np = 1\nk = 1\nq = 1\nm_max = 4\n",
         "p=1 inner fixed point did not converge (last change 9.96e-06)"),
    ])
    def test_experiment_bad_config_is_one_line(self, tmp_path, capsys, text, msg):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[experiment]\noutdir = {tmp_path / 'out'}\n" + text)
        assert run("experiment", f"--config={cfg}") == 1
        assert capsys.readouterr().err == f"dispflow: error: {msg}\n"
        assert not (tmp_path / "out").exists()  # nothing is written before the last stage returns
