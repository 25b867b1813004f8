from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path

import exposure_bandits
from exposure_bandits import Policy

SOURCES = sorted(Path(exposure_bandits.__file__).parent.glob("*.py"))


def test_the_sources_state_no_contract_as_an_assert():
    # python -O strips assert statements, so a check the package relies on
    # raises an exception instead (ContractError, ValueError, ...)
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_oracles_share_no_code_with_the_fast_paths():
    # the brute-force references are ground truth: from the package they
    # take only the problem definition (core) and the aggregate they solve
    tree = ast.parse(Path(exposure_bandits.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, "*") for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {(module, alias.name) for alias in node.names}
    ours = {(m, name) for m, name in imported if m.startswith((".", "exposure_bandits"))}
    assert {(m, name) for m, name in ours if m != ".core"} == {(".matching", "Aggregate")}
    assert (".core", "Instance") in ours


def test_the_bandit_takes_its_logs_from_math_log():
    # np.log rounds some integers differently from math.log, which the
    # bandit's scalar index uses, so its window index must not call it
    tree = ast.parse(Path(exposure_bandits.learn.__file__).read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "log"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name == "log" for alias in node.names))
    ]
    assert found == []


def leaves_to_subclasses(cls) -> bool:
    """Whether ``cls`` defines a stub, a method that ends by raising
    NotImplementedError, for the policies built on it to fill in."""
    return any(inspect.isfunction(f)
               and inspect.getsource(f).rstrip().endswith("raise NotImplementedError")
               for f in vars(cls).values())


def test_every_policy_of_the_package_plays_segments_and_nothing_else():
    # the simulator plays only play_phases; the tests check each fast
    # path against the package's own scalar paths, so no policy keeps a
    # round-by-round copy (choose, feedback) of its play
    found, stack = [], [Policy]
    while stack:
        cls = stack.pop()
        stack += cls.__subclasses__()
        if not cls.__module__.startswith("exposure_bandits."):
            continue
        assert not {"choose", "feedback"} & set(vars(cls)), cls
        if not leaves_to_subclasses(cls):
            found.append(cls.__name__)
            assert cls.play_phases is not Policy.play_phases, cls
    assert {"DpPolicy", "LcbPolicy", "LlcbPolicy", "EesPolicy", "GreedyBanditPolicy"} <= set(found)


def string_constants(path):
    """(line, value) of each string constant of a module, leaving out the
    names its ``__all__`` exports (``"dp_star"`` there names a function)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in exported]


def test_algorithm_ids_and_planners_are_named_in_one_place():
    # the package refers to a planner by its class, and only the command
    # line maps algorithm ids to policies; "myopic" is also the kind its
    # baseline has in learn.BASELINES, so that id is left out
    from exposure_bandits.cli import ALGORITHMS
    from exposure_bandits.learn import BASELINES

    kinds = {"dp_star", "lcb_star", "alcb_star", "llcb"}
    ids = set(ALGORITHMS) - set(BASELINES)
    assert len(ids) == len(ALGORITHMS) - 1
    found = [
        f"{path.name}:{line}: {value!r}"
        for path in SOURCES
        for line, value in string_constants(path)
        if value in kinds or (value in ids and path.name != "cli.py")
    ]
    assert found == []
    in_cli = {value for _, value in string_constants(SOURCES[0].parent / "cli.py")}
    assert {"dp-star", "l-lcb", "blind"} <= in_cli


def test_the_subset_searches_of_exact_values_keep_no_tolerance():
    # lcb_star, A-LCB's greedy, lmatch, the closed-form prices and the
    # flow solve under them compare integers, and best_subset compares
    # what it is given as it stands: a float literal in any of them is a
    # margin creeping back, which would make a bound unable to settle a
    # tie, a price differ from its solve or the solve tie unequal costs
    functions = (
        exposure_bandits.core.best_subset,
        exposure_bandits.lcb.lcb_star,
        exposure_bandits.lcb.greedy_subset,
        exposure_bandits.lcb.AlcbPolicy.__init__,
        exposure_bandits.matching.SubsetPrices,
        exposure_bandits.matching._FlowGraph.solve_from_supplies,
        exposure_bandits.matching.doalg,
        exposure_bandits.lmatch.lmatch,
    )
    found = [
        f"{fn.__qualname__}:{node.lineno}: {node.value!r}"
        for fn in functions
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn))))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
    ]
    assert found == []


def divisions_by_scale(path):
    """(function, line) of each division by a ``scale`` in a module, the
    function named by its qualified name ("" at module level)."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name)
                continue
            if (isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div)
                    and any(getattr(n, "id", None) == "scale" or getattr(n, "attr", None) == "scale"
                            for n in ast.walk(child.right if isinstance(child, ast.BinOp)
                                              else child.value))):
                found.append((name, child.lineno))
            visit(child, name)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_the_matching_planners_divide_by_the_scale_only_in_the_plan():
    # the planners compare SubsetPrices' exact integers; a float made by
    # dividing one by its scale can merge two values that differ, so
    # only Plan._value, which reports the plan's value, divides
    found = [
        (module.__name__, name, line)
        for module in (exposure_bandits.lcb, exposure_bandits.lmatch)
        for name, line in divisions_by_scale(Path(module.__file__))
    ]
    assert {name for _, name, _ in found} == {"Plan._value"}, found


def test_the_lcb_planners_reach_the_flow_solve_only_through_subset_prices():
    # SubsetPrices prices or solves each (available, kept) pair once and
    # checks a solve against its price; a planner that imports doalg
    # could solve a pair around it
    found = []
    for module in (exposure_bandits.lcb, exposure_bandits.lmatch):
        tree = ast.parse(Path(module.__file__).read_text())
        found += [
            f"{Path(module.__file__).name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name.split(".")[-1] == "doalg" for alias in node.names)
        ]
    assert found == []


def test_the_subset_planners_search_only_through_best_subset():
    # core.best_subset holds the one best-first subset search, its
    # pruning and its tie rule; a planner that does not call it has
    # grown a search of its own
    planners = (exposure_bandits.dp.dp_star, exposure_bandits.lcb.lcb_star,
                exposure_bandits.lmatch.lmatch)
    missing = [
        fn.__qualname__
        for fn in planners
        if not any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "best_subset"
            for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn))))
        )
    ]
    assert missing == []


def test_the_subset_tie_order_is_built_only_in_core():
    # core.subset_masks builds the one tie order (fewest arms, then
    # lowest mask) and best_subset walks it with none of its own to take;
    # a module that enumerates combinations or sorts masks by their bit
    # count has grown a second order
    params = inspect.signature(exposure_bandits.core.best_subset).parameters
    assert list(params) == ["instance", "bound", "evaluate"]

    def name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and (
            name(node) == "combinations"
            or name(node) in ("sorted", "sort") and any(
                kw.arg == "key" and "bit_count" in ast.dump(kw.value) for kw in node.keywords))
    ]
    assert found == []


def test_a_plans_value_is_summed_only_by_the_plan():
    # lcb.Plan holds the one exact sum over a plan's segments; the
    # command line formats it and lmatch returns the plan
    for module in (exposure_bandits.cli, exposure_bandits.lmatch):
        assert "matching.exact" not in Path(module.__file__).read_text(), module.__name__


PLANNERS = {"DpPolicy", "LcbPolicy", "AlcbPolicy", "LlcbPolicy"}
GUARDS = {"subset_count", "table_cells", "largest_commitment"}


def test_the_learner_asks_its_planner_what_it_refuses():
    # each planner states its up-front refusals once, in its check, and
    # EesPolicy runs planner.check: a guard named in learn.py, an import
    # of another planner module or a planner class compared by identity
    # would be a second statement of some planner's rules
    tree = ast.parse(Path(exposure_bandits.learn.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("lcb", "lmatch"):
                found.append(f"{node.lineno}: imports .{node.module}")
            found += [f"{node.lineno}: imports {a.name}" for a in node.names if a.name in GUARDS]
        elif isinstance(node, ast.Name) and node.id in GUARDS:
            found.append(f"{node.lineno}: names {node.id}")
        elif isinstance(node, ast.Compare):
            found += [f"{node.lineno}: compares {n.id}" for n in ast.walk(node)
                      if isinstance(n, ast.Name) and n.id in PLANNERS]
    assert found == []


def states_tau_at_least_two(node) -> bool:
    """Whether ``node`` compares a ``tau`` with 1 or 2: the test that the
    confidence floors are defined, in one of its forms."""
    if not isinstance(node, ast.Compare) or len(node.comparators) != 1:
        return False
    sides = (node.left, node.comparators[0])
    return (any(getattr(n, "id", None) == "tau" or getattr(n, "attr", None) == "tau"
                for n in sides)
            and any(isinstance(n, ast.Constant) and n.value in (1, 2) for n in sides))


def test_tau_at_least_two_is_stated_only_by_the_confidence_width():
    # matching.confidence_width refuses tau < 2 for build_lcb_aggregate
    # and the LCB planners' checks alike
    found = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if states_tau_at_least_two(node)
    ]
    assert [name for name, _ in found] == ["matching.py"], found
    fn = exposure_bandits.matching.confidence_width
    lines, first = inspect.getsourcelines(fn)
    assert first <= found[0][1] < first + len(lines)


def imports_scipy(node) -> bool:
    """Whether ``node`` is an import statement of SciPy or a submodule."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy")


def test_scipy_is_imported_only_inside_the_graph_reference():
    # SciPy is a test dependency: the runtime needs NumPy only, and the
    # one cross-check that solves with SciPy imports it when called
    found = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if imports_scipy(node)
    ]
    assert [name for name, _ in found] == ["matching.py"], found
    lines, first = inspect.getsourcelines(exposure_bandits.matching.doalg_graph_reference)
    assert first < found[0][1] < first + len(lines)
