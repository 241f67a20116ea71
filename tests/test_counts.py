"""Every count argument of the library obeys `spectral.as_count`.

A count is a size, a depth, a word length, a number of samples or a seed.  The
table lists each one with the name its error message gives and its least value.
A value below it, a non-integral number, a bool and a string are refused with
the rule's message, and an integral float gives exactly the result of the int.
A completeness check reads the signatures of the public API, so a new count
parameter fails here until it is added to the table.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from shiftkms import beta, equilibrium, krieger, spectral, subshift, tracespace

MODULES = (spectral, subshift, beta, krieger, tracespace, equilibrium)
COUNT_PARAMETERS = {
    "n", "n_max", "l", "l_max", "depth", "R", "n_samples", "seed", "n_digits", "digit_depth", "alphabet",
}
REPORTS = {"PastPartition", "SoficReport", "BracketReport", "VariationalReport"}  # results, not arguments

GOLDEN = [[1, 1], [1, 0]]
TRACE = [0.5, 0.5]
SPEC = subshift.SFT(GOLDEN)


def _automaton():
    return subshift.automaton_for(SPEC)


# (callable, parameter, name in the message, least, a valid value, call with the parameter set)
TABLE = [
    ("normalized_powers", "n", "n", 0, 5, lambda v: spectral.normalized_powers(GOLDEN, TRACE, v)),
    ("sparse_radius_bracket", "n", "n", 0, 2, lambda v: spectral.sparse_radius_bracket(v, [0, 0, 1], [0, 1, 0])),
    ("FullShift", "alphabet", "alphabet", 1, 3, subshift.FullShift),
    ("ForbiddenWords", "alphabet", "alphabet", 1, 2, lambda v: subshift.ForbiddenWords(v, ((1, 1),))),
    ("BetaShift", "digit_depth", "digit_depth", 1, 20, lambda v: subshift.BetaShift(1.5, digit_depth=v)),
    ("Automaton.count_vectors", "n", "n", 0, 5, lambda v: list(_automaton().count_vectors(v))),
    ("Automaton.reach_order", "l", "l", 0, 3, lambda v: _automaton().reach_order(v)),
    ("count_words", "n", "n", 0, 3, lambda v: subshift.count_words(SPEC, v)),
    ("count_words_sequence", "n_max", "n_max", 0, 5, lambda v: subshift.count_words_sequence(SPEC, v)),
    ("topological_entropy", "n_max", "n_max", 2, 6, lambda v: subshift.topological_entropy(SPEC, v)),
    ("BetaExpansion.quasi_greedy_digits", "n", "n", 0, 5,
     lambda v: beta.beta_expansion_of_one(1.5, 20).quasi_greedy_digits(v)),
    ("beta_expansion_of_one", "n_digits", "n_digits", 1, 10, lambda v: beta.beta_expansion_of_one(1.5, v)),
    ("predecessor_set", "l", "l", 0, 3, lambda v: krieger.predecessor_set((1,), v, SPEC)),
    ("omega_l", "l", "l", 0, 2, lambda v: krieger.omega_l(SPEC, v, 6)),
    ("omega_l", "depth", "depth", 2, 6, lambda v: krieger.omega_l(SPEC, 2, v)),
    ("sofic_check", "l_max", "l_max", 2, 4, lambda v: krieger.sofic_check(SPEC, v, 8)),
    ("sofic_check", "depth", "depth", 3, 7, lambda v: krieger.sofic_check(SPEC, 3, v)),
    ("entropy_bracket", "n_max", "n_max", 4, 5, lambda v: krieger.entropy_bracket(SPEC, v, 12)),
    ("entropy_bracket", "depth", "depth", 5, 8, lambda v: krieger.entropy_bracket(SPEC, 5, v)),
    ("h_iterate", "n", "n", 0, 3, lambda v: tracespace.h_iterate(tracespace.kms_eigen_sequence(GOLDEN, 6), v)),
    ("kms_eigen_sequence", "R", "depth", 0, 4, lambda v: tracespace.kms_eigen_sequence(GOLDEN, v)),
    ("coherent_from_boundary", "R", "R", 0, 4, lambda v: tracespace.coherent_from_boundary(GOLDEN, [1.0, 1.0], v)),
    ("epsilon_sequence", "n_max", "n_max", 1, 5, lambda v: tracespace.epsilon_sequence(GOLDEN, TRACE, v)),
    ("temperature_from_trace", "n_max", "n_max", 1, 50, lambda v: tracespace.temperature_from_trace(GOLDEN, TRACE, v)),
    ("kms_temperature", "depth", "depth", 0, 12, lambda v: tracespace.kms_temperature([[0, 0.3], [0.5, 0]], v)),
    ("bimodule_kms", "depth", "depth", 0, 5, lambda v: tracespace.bimodule_kms(GOLDEN, v)),
    ("variational_scan", "n_samples", "n_samples", 1, 4, lambda v: equilibrium.variational_scan(GOLDEN, v)),
    ("variational_scan", "seed", "seed", 0, 7, lambda v: equilibrium.variational_scan(GOLDEN, 3, seed=v)),
]


def count_parameters() -> set[tuple[str, str]]:
    """(callable, parameter) for each count parameter of a public function, method or
    presentation dataclass defined in MODULES; Automaton.check_length checks, it counts nothing."""
    found = set()
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__ or name in REPORTS:
                continue
            targets = [(name, obj)] if inspect.isfunction(obj) or dataclasses.is_dataclass(obj) else []
            if inspect.isclass(obj):
                targets += [(f"{name}.{m}", f) for m, f in vars(obj).items() if inspect.isfunction(f) and m[0] != "_"]
            for qual, f in targets:
                found |= {(qual, p) for p in inspect.signature(f).parameters if p in COUNT_PARAMETERS}
    return found - {("Automaton.check_length", "n")}


def test_the_table_lists_every_count_parameter():
    assert {(qual, param) for qual, param, *_ in TABLE} == count_parameters()


def _plain(x):
    """x as nested lists, dicts and scalars, so repr tells an int from a float."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (tuple, list)):
        return [_plain(y) for y in x]
    return x


@pytest.mark.parametrize("qual, param, name, least, good, call", TABLE, ids=[f"{q}-{p}" for q, p, *_ in TABLE])
def test_count_argument_obeys_the_one_rule(qual, param, name, least, good, call):
    with pytest.raises(ValueError) as info:
        call(least - 1)
    assert str(info.value) == f"{name} must be >= {least}, got {least - 1}"
    for value in (2.5, True, "3"):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be an integer, got {value!r}"
    assert repr(_plain(call(float(good)))) == repr(_plain(call(good)))
