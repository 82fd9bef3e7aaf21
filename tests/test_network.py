"""Square-network path sums against their independent path-enumeration oracle."""

import hashlib
import json

import pytest

from symgroupoid.laurent import Q
from symgroupoid.network import SquareNetwork, enumerate_paths_dfs, path_sum_bruteforce
from symgroupoid.quiver import poisson_bracket
from symgroupoid.squares import amalgamated_quiver, square_quiver, transport_quiver
from symgroupoid.suites import casimir_checks


def test_unsupported_size_rejected():
    with pytest.raises(ValueError):
        SquareNetwork(6)
    with pytest.raises(ValueError):
        SquareNetwork(2)


def test_published_term_counts_n4():
    net = SquareNetwork(4)
    assert net.path_sum_entry(1, 2).num.term_count() == 5
    assert net.path_sum_entry(2, 3).num.term_count() == 6
    assert net.path_sum_entry(2, 4).num.term_count() == 17
    assert net.path_sum_entry(3, 4).num.term_count() == 7


def test_face_labels_n4():
    net = SquareNetwork(4)
    assert sorted(net.face_names) == sorted(
        ["a", "b", "c", "p", "q", "r", "s1", "s2", "s3", "f1", "f2", "f3"]
    )
    assert len(net.face_names) == 12  # n(n-1) inner faces


def test_entry_rejects_bad_indices():
    net = SquareNetwork(3)
    with pytest.raises(ValueError):
        net.path_sum_entry(2, 2)
    with pytest.raises(ValueError):
        net.path_sum_entry(3, 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_oracle_agreement(n):
    net = SquareNetwork(n)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            entry = net.path_sum_entry(i, j)
            assert entry == path_sum_bruteforce(net, i, j)
            assert entry.num.term_count() == len(enumerate_paths_dfs(net, i, j))
            assert all(c == 1 for c in entry.num.terms.values())


def test_n5_path_count_specific():
    net = SquareNetwork(5)
    entry = net.path_sum_entry(2, 4)
    assert entry.num.term_count() == len(enumerate_paths_dfs(net, 2, 4))


def test_evaluation_at_unit_point():
    net = SquareNetwork(4)
    ones = {name: Q(1) for name in net.table.names}
    assert net.path_sum_entry(1, 2).evaluate(ones) == 5
    assert net.path_sum_entry(2, 3).evaluate(ones) == 6


def test_assembled_matrices_shape_and_signs():
    net = SquareNetwork(3)
    a, at = net.assemble_A()
    ones = {name: Q(1) for name in net.table.names}
    for m in (a, at):
        assert m.is_upper_triangular()
        for i in range(3):
            assert m[i, i].evaluate(ones) == 1
    # off-diagonal signs alternate with i+j
    assert a[0, 1].evaluate(ones) < 0
    assert a[0, 2].evaluate(ones) > 0


def test_twin_sides_commute_n3():
    net = SquareNetwork(3)
    a12 = net.path_sum_entry(1, 2)
    t13 = net.path_sum_entry(1, 3, "Atilde")
    assert not poisson_bracket(a12, t13, net.quiver)


# sha256 of ``SquareNetwork(n).to_json()`` for n = 3, 4, 5 (what ``geodesic
# --network N`` prints) and of every entry's ``to_json()`` on both sides: the
# half-unit coordinates print as the rationals they stand for, and the path
# sums keep their stored form.  The second digest has every entry in the form
# the earlier joint-content normalization stored
NETWORK_STORED_SHA256 = "afa83885484d2a9511ee49365f604811bb5435240c958908bcf3f2fe0abeaa02"
JOINT_CONTENT_NETWORK_STORED_SHA256 = "45a731a232b6a263abe314dd4d52248bdec3cdc0c9e003b27732472e3830a4e3"


def test_network_stored_form_is_pinned(joint_content_json):
    for serialize, pinned in (
        (lambda f: f.to_json(), NETWORK_STORED_SHA256),
        (joint_content_json, JOINT_CONTENT_NETWORK_STORED_SHA256),
    ):
        doc = {}
        for n in (3, 4, 5):
            net = SquareNetwork(n)
            doc[f"network/{n}"] = net.to_json()
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for side in ("A", "Atilde"):
                        doc[f"entry/{n}/{i},{j}/{side}"] = serialize(net.path_sum_entry(i, j, side))
        assert len(doc) == 41
        assert doc["network/4"]["verticals"]["1"][:2] == ["5/2", "-1/2"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == pinned


def test_face_coordinates_are_half_unit_ints():
    net = SquareNetwork(4)
    for t, faces in net.bands.items():
        assert all(type(x) is int and x % 2 == t % 2 for x in net.verticals[t])
        for f in faces:
            assert type(f.center) is int and 2 * f.center == f.left + f.right


def test_network_json_dump():
    data = SquareNetwork(3).to_json()
    assert data["n"] == 3
    assert {f["name"] for f in data["faces"]} >= {"s1", "s2", "f1", "f2"}
    assert "1,3" in data["regions"]
    assert len(square_quiver(3).vertices) == 16
    assert len(amalgamated_quiver(3).vertices) == 12
    assert len(transport_quiver(3).vertices) == 9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_casimir_suite(n, check_results):
    # the size-n checks, read from the session's run of the casimirs suite
    results = check_results("casimirs")
    for check in casimir_checks(n):
        result = results[check.id]
        assert result.status == "pass", f"{check.id}: {result.witness}"
