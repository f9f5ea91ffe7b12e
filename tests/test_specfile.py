import pytest

from lltwalk import load_walk_spec, parse_spec_text
from lltwalk.errors import SpecFileError

from conftest import config_path


def test_parse_lazy_config():
    spec = load_walk_spec(config_path("lazy_pert_1d.cfg"))
    assert spec.nu == 1
    assert spec.sigma2 == pytest.approx(0.5)
    assert not spec.unperturbed


def test_parse_2d_config():
    spec = load_walk_spec(config_path("unit_cov_2d.cfg"))
    assert spec.nu == 2
    assert spec.B.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert spec.d.tolist() == [0.1, 0.0]


def test_errors_cite_line_numbers():
    text = "dim = 1\np 0 = 1/2\np 1 = 1/4\np -1 = 1/4\nq 0 = oops\n"
    with pytest.raises(SpecFileError, match=r"walk\.cfg:5"):
        parse_spec_text(text, name="walk.cfg")

    with pytest.raises(SpecFileError, match=r":2"):
        parse_spec_text("dim = 1\np 0 1 = 1/2\n", name="x")

    with pytest.raises(SpecFileError, match=r":1"):
        parse_spec_text("steps = 3\n", name="x")

    with pytest.raises(SpecFileError, match=r":1"):
        parse_spec_text("p 0 = 1\n", name="x")  # dim must come first


def test_missing_sections():
    with pytest.raises(SpecFileError, match="missing 'dim'"):
        parse_spec_text("# empty\n")
    with pytest.raises(SpecFileError, match="no support points given for q"):
        parse_spec_text("dim = 1\np 0 = 1\n")


def test_comments_and_accumulation():
    text = """
dim = 1          # inline comment
p 0 = 1/4
p 0 = 1/4        # repeated points accumulate
p 1 = 1/4
p -1 = 1/4
q 0 = 1/2
q 1 = 1/4
q -1 = 1/4
unperturbed = true
"""
    p, q, unperturbed, dim = parse_spec_text(text)
    assert dim == 1 and unperturbed
    assert p.value_at(0) == 0.5

