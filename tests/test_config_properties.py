"""Property tests of the `gclkit run` configuration parser.

Every argv and every JSON config object either yields a run configuration
and its motion case, or fails with a one-line :class:`ConfigError`; nothing
else escapes.  No sweep is run.
"""

import dataclasses
import json

from hypothesis import example, given, settings, strategies as st

from gclkit.cli import SETTINGS, build_parser, build_run_config
from gclkit.experiments import ConfigError
from gclkit.hexmesh import MAX_LENGTH, MIN_CELL_EDGE
from gclkit.motion import CASES

# every setting's flag (not --config, which opens a file, nor --help, which
# exits), retired and unknown ones, and values that sit on or near what the
# parsers accept
RUN_FLAGS = sorted("--" + key.replace("_", "-") for key in SETTINGS) + [
    "--cfl", "--max-iters", "--bogus", "-x"
]
VALUES = [
    "1", "2", "4", "0", "-1", "1.5", "42.7", "1e308", "-1e308", "nan", "inf", "",
    "1..3", "3..1", "0..5", "1..65", "1..2..3", "2,2,2", "0,2,2", "1,x,2", "0.1,0.1",
    "3.2,2.8,2.4", "on", "off", "yes", "maybe", "case4", "rigid-rotation", "avg",
    "lvi,avg,lvi", "trimap,ts-aevi", "0\n..5", "a\nb", " ",
]
# free text never starts with "-", so it cannot abbreviate --help or --config
VALUE_TOKENS = st.one_of(
    st.sampled_from(VALUES),
    st.text(max_size=12).filter(lambda text: not text.startswith("-")),
)
# mostly a flag and its value, sometimes a lone flag or value
ARGV_PIECES = st.one_of(
    st.tuples(st.sampled_from(RUN_FLAGS), VALUE_TOKENS),
    st.tuples(st.sampled_from(RUN_FLAGS)),
    st.tuples(VALUE_TOKENS),
)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),  # NaN and infinities included, as json writes them
        st.sampled_from(VALUES),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=8,
)
CONFIG_OBJECTS = st.dictionaries(
    st.one_of(st.sampled_from([*SETTINGS, "cfl", "max_iters"]), st.text(max_size=8)),
    JSON_VALUES,
    max_size=6,
)


def _configure(argv):
    """The run configuration and its motion case, or the ConfigError's text."""
    try:
        cfg = build_run_config(build_parser().parse_args(argv))
        return cfg, cfg.motion_case()
    except ConfigError as err:
        return str(err)


def _check(outcome):
    if isinstance(outcome, str):
        assert outcome and "\n" not in outcome and "\r" not in outcome, outcome
        return
    cfg, case = outcome
    assert 1 <= cfg.n[0] <= cfg.n[1] <= 64
    # the whole box rule: whole counts, and cell edges whose 4th power
    # neither underflows nor overflows
    assert all(isinstance(n, int) and n >= 1 for n in cfg.mesh)
    assert all(
        MIN_CELL_EDGE <= length / n and length <= MAX_LENGTH
        for n, length in zip(cfg.mesh, cfg.lengths)
    ), cfg.lengths
    assert case.case_id == cfg.case
    not_none = {f.name for f in dataclasses.fields(case) if getattr(case, f.name) is not None}
    assert not_none - {"case_id", "period"} <= CASES[case.case_id].params.keys(), case


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(ARGV_PIECES, max_size=6))
@example(pieces=[("--n", "0\n..5")])
def test_any_run_argv_gives_a_config_or_a_one_line_config_error(pieces):
    _check(_configure(["run", *(token for piece in pieces for token in piece)]))


@settings(max_examples=300, deadline=None)
@given(config=CONFIG_OBJECTS)
def test_any_json_config_gives_a_config_or_a_one_line_config_error(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps(config))
    _check(_configure(["run", "--config", str(path)]))
