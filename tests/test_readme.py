import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_as_documented():
    # the first python block under "## Library", run as it stands
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(compile(code, str(README), "exec"), ns)
    rec, periods, index_certificate = ns["rec"], ns["periods"], ns["index_certificate"]
    assert (rec.k, rec.monogenic, rec.poly_discriminant) == (77, False, -5929 * 19**5)
    assert (rec.signature.n_real, rec.signature.n_complex_pairs) == (0, 3)
    assert ns["report"].counterexamples == ()
    make_context, modular = ns["make_context"], ns["period_polynomial_modular"]
    assert periods.polynomial(6).poly == modular(make_context(6, 10)).poly
    assert index_certificate(periods, 6) == periods.residue_prime
    assert index_certificate(periods, 60) is None
