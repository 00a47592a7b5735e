"""Golden runs: exact results of fixed-seed DPSEA, cGA, DE and PSO runs.

Each case pins ``best_fitness``, ``best_genome``, the budget's
``total_eval`` and ``total_unchanged`` and every ``CycleRecord`` of the
trace, compared with ``==``. A change that only restructures the code
(how the population is stored, how archives are built) must keep the RNG
draw order and the floating-point operations, and so pass unchanged. A
change that alters the search on purpose re-records these values and says
so.

The budgets are small, so the module runs in a few seconds. Besides the
defaults, the cases cover a skipped initial design (a budget it does not
fit in), rs = 3, sigma = 0, and two multi-cluster settings. At defaults
the population soon collapses into one cluster, while
``radius_fraction=0.01, max_clusters=4`` keeps four clusters alive through
most of the rastrigin1 run, one or two of them eligible per cycle, so the
others merge back unevolved for many cycles in a row.
"""

import dataclasses
from dataclasses import dataclass, field

import pytest

from dpsea import baselines, engine
from dpsea.benchmarks import NoiseModel, make_function
from dpsea.engine import DpseaParams
from dpsea.ga import GaParams
from dpsea.stochastics import RngState


@dataclass(frozen=True)
class Golden:
    function: str
    dimension: int
    sigma: float
    rs: int
    budget: int
    seed: int
    best_fitness: float
    best_genome: list
    total_eval: int
    total_unchanged: int
    trace: list
    params: dict = field(default_factory=dict)


def assert_matches(res, want):
    assert res.best_fitness == want.best_fitness
    assert res.best_genome.tolist() == want.best_genome
    assert res.budget.total_eval == want.total_eval
    assert res.budget.total_unchanged == want.total_unchanged
    assert [dataclasses.astuple(r) for r in res.trace] == want.trace


def case_id(g):
    return f"{g.function}-{g.dimension}d-seed{g.seed}"


DPSEA_GOLDEN = [
    Golden(
        function='sphere', dimension=5, sigma=1.0, rs=1, budget=4000, seed=11,
        best_fitness=6.597771672652526e-07,
        best_genome=[
            0.0001019685903777606,
            -0.0006969198730600171,
            0.00010963398554583701,
            -0.00034635261422281917,
            0.00017805201546174337,
        ],
        total_eval=3922,
        total_unchanged=369,
        trace=[
            (0, 772, 6.597771672652526e-07, 10, 4),
            (1, 952, 6.597771672652526e-07, 6, 1),
            (2, 1132, 6.597771672652526e-07, 1, 1),
            (3, 1312, 6.597771672652526e-07, 1, 1),
            (4, 1492, 6.597771672652526e-07, 1, 1),
            (5, 1672, 6.597771672652526e-07, 1, 1),
            (6, 1852, 6.597771672652526e-07, 1, 1),
            (7, 2032, 6.597771672652526e-07, 1, 1),
            (8, 2212, 6.597771672652526e-07, 1, 1),
            (9, 2392, 6.597771672652526e-07, 1, 1),
            (10, 2572, 6.597771672652526e-07, 1, 1),
            (11, 2752, 6.597771672652526e-07, 1, 1),
            (12, 2932, 6.597771672652526e-07, 1, 1),
            (13, 3112, 6.597771672652526e-07, 1, 1),
            (14, 3292, 6.597771672652526e-07, 1, 1),
            (15, 3472, 6.597771672652526e-07, 1, 1),
            (16, 3652, 6.597771672652526e-07, 1, 1),
            (17, 3832, 6.597771672652526e-07, 1, 1),
            (18, 3922, 6.597771672652526e-07, 1, 1),
        ],
    ),
    Golden(
        function='sphere', dimension=5, sigma=0.5, rs=1, budget=500, seed=16,
        params=dict(ga=GaParams(pop_size=20, n_elites=2)),
        best_fitness=421.7947858965612,
        best_genome=[
            -7.921257818591074,
            7.767193891047852,
            -11.35830376012044,
            -10.489372144349678,
            7.7253587125139225,
        ],
        total_eval=488,
        total_unchanged=32,
        trace=[
            (0, 56, 1156.9171190834363, 10, 1),
            (1, 92, 1142.424784487297, 7, 1),
            (2, 128, 945.8413621527458, 4, 2),
            (3, 166, 530.6726511659367, 3, 1),
            (4, 204, 518.8624486770539, 1, 1),
            (5, 242, 503.7229722551549, 1, 1),
            (6, 280, 487.54476880236274, 1, 1),
            (7, 318, 472.14956587513615, 1, 1),
            (8, 356, 455.8489792241636, 1, 1),
            (9, 394, 445.2717105034003, 1, 1),
            (10, 432, 433.9160772951401, 1, 1),
            (11, 470, 426.49111367180797, 1, 1),
            (12, 488, 421.7947858965612, 1, 1),
        ],
    ),
    Golden(
        function='griewank', dimension=10, sigma=0.5, rs=1, budget=4000, seed=12,
        best_fitness=0.0018273755047292228,
        best_genome=[
            99.99420078715723,
            99.97252494863065,
            100.02185828171258,
            99.9901227450397,
            100.01198160114892,
            100.03145838580399,
            100.10409214288046,
            100.00039893647512,
            100.03584121907605,
            99.89205245865912,
        ],
        total_eval=3974,
        total_unchanged=335,
        trace=[
            (0, 1184, 0.00345840366905259, 10, 2),
            (1, 1364, 0.00345840366905259, 5, 1),
            (2, 1544, 0.00345840366905259, 1, 1),
            (3, 1724, 0.00345840366905259, 1, 1),
            (4, 1904, 0.002462101719566956, 1, 1),
            (5, 2084, 0.002462101719566956, 1, 1),
            (6, 2264, 0.002462101719566956, 1, 1),
            (7, 2444, 0.002462101719566956, 1, 1),
            (8, 2624, 0.002462101719566956, 1, 1),
            (9, 2804, 0.002462101719566956, 1, 1),
            (10, 2984, 0.002462101719566956, 1, 1),
            (11, 3164, 0.002303140698063033, 1, 1),
            (12, 3344, 0.0018273755047292228, 1, 1),
            (13, 3524, 0.0018273755047292228, 1, 1),
            (14, 3704, 0.0018273755047292228, 1, 1),
            (15, 3884, 0.0018273755047292228, 1, 1),
            (16, 3974, 0.0018273755047292228, 1, 1),
        ],
    ),
    Golden(
        function='rastrigin1', dimension=10, sigma=0.0, rs=3, budget=6000, seed=13,
        best_fitness=0.13225506623111016,
        best_genome=[
            -0.003217497092884791,
            -0.010976733586576862,
            0.020189655164391876,
            -0.008060813235481051,
            -0.0003191776600195641,
            -0.0019987701926135,
            -0.007050444216514798,
            -0.0005238082003589719,
            0.0026136175070010817,
            -0.0017021815843326852,
        ],
        total_eval=5841,
        total_unchanged=192,
        trace=[
            (0, 3561, 9.142507528220932, 10, 2),
            (1, 4131, 3.623069458308251, 7, 1),
            (2, 4701, 3.623069458308251, 1, 1),
            (3, 5271, 3.134163154506169, 1, 1),
            (4, 5841, 0.13225506623111016, 1, 1),
        ],
    ),
    Golden(
        function='rosenbrock', dimension=10, sigma=0.3, rs=1, budget=4000, seed=14,
        best_fitness=669.6654390637331,
        best_genome=[
            0.5274296120940233,
            0.2416493636780127,
            0.14183396674385437,
            0.1802908825593985,
            0.2561200661523974,
            0.3422132169628824,
            0.029994681634293974,
            0.026994906410169626,
            -2.5112464372790058,
            6.515641450031673,
        ],
        total_eval=3938,
        total_unchanged=171,
        trace=[
            (0, 1199, 6540.317103690909, 10, 3),
            (1, 1388, 6540.317103690909, 7, 2),
            (2, 1568, 6540.317103690909, 2, 1),
            (3, 1758, 6336.672448353512, 1, 1),
            (4, 1948, 5233.612901854332, 1, 1),
            (5, 2138, 4558.922355755162, 1, 1),
            (6, 2328, 3417.7551343461746, 1, 1),
            (7, 2518, 1969.0637914394654, 1, 1),
            (8, 2708, 1404.1590016772384, 1, 1),
            (9, 2898, 988.0941440303767, 1, 1),
            (10, 3088, 823.6575133345619, 1, 1),
            (11, 3278, 761.6790651967542, 1, 1),
            (12, 3468, 730.551905149433, 1, 1),
            (13, 3658, 696.9524593107743, 1, 1),
            (14, 3848, 676.1486013859894, 1, 1),
            (15, 3938, 669.6654390637331, 1, 1),
        ],
    ),
    Golden(
        function='rastrigin1', dimension=5, sigma=0.5, rs=1, budget=4000, seed=15,
        params=dict(radius_fraction=0.01, max_clusters=4),
        best_fitness=0.00625209854800346,
        best_genome=[
            0.001896971624424803,
            -6.029755431622696e-05,
            -0.0035752156360366097,
            -0.003630141240797257,
            -0.0013974186551399229,
        ],
        total_eval=3936,
        total_unchanged=360,
        trace=[
            (0, 771, 1.1574572516904382, 4, 2),
            (1, 951, 1.1417347919473002, 4, 2),
            (2, 1138, 0.2894808974756913, 4, 2),
            (3, 1327, 0.08225843524661514, 4, 1),
            (4, 1507, 0.012820747781148611, 4, 1),
            (5, 1687, 0.011694387700323716, 4, 1),
            (6, 1867, 0.011694387700323716, 4, 1),
            (7, 2047, 0.011694387700323716, 4, 1),
            (8, 2226, 0.009636157827252134, 4, 2),
            (9, 2406, 0.009636157827252134, 4, 1),
            (10, 2586, 0.009636157827252134, 3, 1),
            (11, 2766, 0.00625209854800346, 3, 1),
            (12, 2946, 0.00625209854800346, 3, 1),
            (13, 3126, 0.00625209854800346, 4, 1),
            (14, 3306, 0.00625209854800346, 4, 1),
            (15, 3486, 0.00625209854800346, 4, 1),
            (16, 3666, 0.00625209854800346, 4, 1),
            (17, 3846, 0.00625209854800346, 4, 1),
            (18, 3936, 0.00625209854800346, 3, 1),
        ],
    ),
    Golden(
        function='rosenbrock', dimension=5, sigma=0.5, rs=1, budget=4000, seed=15,
        params=dict(radius_fraction=0.01, max_clusters=4),
        best_fitness=1.7978874196905124,
        best_genome=[
            0.7683936874413615,
            0.544554356249337,
            0.3195844048455176,
            0.11883257631936914,
            0.006403553241218395,
        ],
        total_eval=4000,
        total_unchanged=294,
        trace=[
            (0, 783, 13071.964516124382, 4, 2),
            (1, 963, 249.26052577725198, 4, 0),
            (2, 1149, 150.90484209666522, 4, 2),
            (3, 1337, 65.25477531834053, 4, 2),
            (4, 1527, 64.22398305487314, 1, 1),
            (5, 1717, 22.359224205173714, 1, 1),
            (6, 1907, 12.171792671782907, 1, 1),
            (7, 2096, 4.088387633412148, 1, 1),
            (8, 2286, 2.403062240880847, 1, 1),
            (9, 2466, 1.8174880009934058, 1, 1),
            (10, 2650, 1.8062187115932904, 1, 1),
            (11, 2830, 1.8062187115932904, 1, 1),
            (12, 3010, 1.8062187115932904, 1, 1),
            (13, 3190, 1.8062187115932904, 1, 1),
            (14, 3370, 1.8062187115932904, 1, 1),
            (15, 3550, 1.8062187115932904, 1, 1),
            (16, 3730, 1.7978874196905124, 1, 1),
            (17, 3910, 1.7978874196905124, 1, 1),
            (18, 4000, 1.7978874196905124, 1, 1),
        ],
    ),
]

CGA_GOLDEN = [
    Golden(
        function='sphere', dimension=5, sigma=1.0, rs=2, budget=3000, seed=21,
        best_fitness=38.95211296708679,
        best_genome=[
            2.0627445513233122,
            -2.3898781413822183,
            0.3618275401398889,
            5.2784470268709,
            0.9963725047041014,
        ],
        total_eval=2720,
        total_unchanged=280,
        trace=[
            (0, 200, 2704.7574621895583, 0, 0),
            (1, 380, 514.230442510982, 0, 0),
            (2, 560, 181.94452732337112, 0, 0),
            (3, 740, 129.0953433263296, 0, 0),
            (4, 920, 78.33450810536593, 0, 0),
            (5, 1100, 59.812967215858365, 0, 0),
            (6, 1280, 59.812967215858365, 0, 0),
            (7, 1460, 51.3061097461394, 0, 0),
            (8, 1640, 49.287227218584846, 0, 0),
            (9, 1820, 41.433971635816846, 0, 0),
            (10, 2000, 41.31905634340943, 0, 0),
            (11, 2180, 40.22198028133832, 0, 0),
            (12, 2360, 39.95678998768203, 0, 0),
            (13, 2540, 39.13475780889251, 0, 0),
            (14, 2720, 38.95211296708679, 0, 0),
        ],
    ),
    Golden(
        function='griewank', dimension=10, sigma=0.0, rs=1, budget=2000, seed=22,
        best_fitness=8.506437629213256,
        best_genome=[
            53.14182911317142,
            38.02830521240599,
            34.099259166669114,
            25.58247111738324,
            178.33774736898891,
            61.922765325498176,
            49.11698849454362,
            110.2227706850062,
            37.22332508802365,
            127.75450746766218,
        ],
        total_eval=1810,
        total_unchanged=190,
        trace=[
            (0, 100, 101.96202959250105, 0, 0),
            (1, 190, 20.880758389338606, 0, 0),
            (2, 280, 20.880758389338606, 0, 0),
            (3, 370, 20.880758389338606, 0, 0),
            (4, 460, 13.537334541353225, 0, 0),
            (5, 550, 10.065347224760469, 0, 0),
            (6, 640, 9.4129774142342, 0, 0),
            (7, 730, 9.357654859773945, 0, 0),
            (8, 820, 8.99299253289077, 0, 0),
            (9, 910, 8.721509917005562, 0, 0),
            (10, 1000, 8.721509917005562, 0, 0),
            (11, 1090, 8.699415635030563, 0, 0),
            (12, 1180, 8.661242499075689, 0, 0),
            (13, 1270, 8.573159121071505, 0, 0),
            (14, 1360, 8.573159121071505, 0, 0),
            (15, 1450, 8.538660163002579, 0, 0),
            (16, 1540, 8.534398116821835, 0, 0),
            (17, 1630, 8.519782289573907, 0, 0),
            (18, 1720, 8.519782289573907, 0, 0),
            (19, 1810, 8.506437629213256, 0, 0),
        ],
    ),
]

DE_GOLDEN = [
    Golden(
        function='sphere', dimension=5, sigma=0.5, rs=2, budget=2000, seed=31,
        best_fitness=29.934668446143537,
        best_genome=[
            -0.27541963604875974,
            3.223518281559759,
            -2.500715659709602,
            0.879363481256143,
            3.5271636502703654,
        ],
        total_eval=2000,
        total_unchanged=0,
        trace=[
            (0, 100, 2295.589542892767, 0, 0),
            (1, 200, 1844.718701762735, 0, 0),
            (2, 300, 1844.718701762735, 0, 0),
            (3, 400, 1844.718701762735, 0, 0),
            (4, 500, 1269.8553625871853, 0, 0),
            (5, 600, 1269.8553625871853, 0, 0),
            (6, 700, 1269.8553625871853, 0, 0),
            (7, 800, 956.7088873208494, 0, 0),
            (8, 900, 213.3295855509547, 0, 0),
            (9, 1000, 213.3295855509547, 0, 0),
            (10, 1100, 213.3295855509547, 0, 0),
            (11, 1200, 213.3295855509547, 0, 0),
            (12, 1300, 213.3295855509547, 0, 0),
            (13, 1400, 213.3295855509547, 0, 0),
            (14, 1500, 213.3295855509547, 0, 0),
            (15, 1600, 213.3295855509547, 0, 0),
            (16, 1700, 213.3295855509547, 0, 0),
            (17, 1800, 102.92019932858517, 0, 0),
            (18, 1900, 29.934668446143537, 0, 0),
            (19, 2000, 29.934668446143537, 0, 0),
        ],
    ),
]

PSO_GOLDEN = [
    Golden(
        function='rastrigin1', dimension=5, sigma=1.0, rs=3, budget=900, seed=32,
        best_fitness=35.6488894412293,
        best_genome=[
            -1.8838738978899388,
            1.5184008456744507,
            -0.01578145647842233,
            0.1837604098343526,
            -0.9572466194395748,
        ],
        total_eval=900,
        total_unchanged=0,
        trace=[
            (0, 60, 55.48398378062194, 0, 0),
            (1, 120, 41.223510288924516, 0, 0),
            (2, 180, 41.223510288924516, 0, 0),
            (3, 240, 41.223510288924516, 0, 0),
            (4, 300, 41.223510288924516, 0, 0),
            (5, 360, 39.08365143664618, 0, 0),
            (6, 420, 39.08365143664618, 0, 0),
            (7, 480, 39.08365143664618, 0, 0),
            (8, 540, 39.08365143664618, 0, 0),
            (9, 600, 39.08365143664618, 0, 0),
            (10, 660, 39.08365143664618, 0, 0),
            (11, 720, 39.08365143664618, 0, 0),
            (12, 780, 35.6488894412293, 0, 0),
            (13, 840, 35.6488894412293, 0, 0),
            (14, 900, 35.6488894412293, 0, 0),
        ],
    ),
]


@pytest.mark.parametrize("want", DPSEA_GOLDEN, ids=case_id)
def test_dpsea_run_is_bit_identical(want):
    fn = make_function(want.function, dimension=want.dimension)
    params = DpseaParams(max_total_eval=want.budget, rs_merge=want.rs, **want.params)
    res = engine.run(fn, NoiseModel(0.0, want.sigma), params, RngState(want.seed))
    assert_matches(res, want)


@pytest.mark.parametrize("want", CGA_GOLDEN, ids=case_id)
def test_run_cga_is_bit_identical(want):
    fn = make_function(want.function, dimension=want.dimension)
    cfg = baselines.CgaConfig(rs=want.rs, total_eval=want.budget)
    res = baselines.run_cga(fn, NoiseModel(0.0, want.sigma), cfg, RngState(want.seed))
    assert_matches(res, want)


@pytest.mark.parametrize("want", DE_GOLDEN, ids=case_id)
def test_run_de_is_bit_identical(want):
    fn = make_function(want.function, dimension=want.dimension)
    cfg = baselines.DeConfig(rs=want.rs, total_eval=want.budget)
    res = baselines.run_de(fn, NoiseModel(0.0, want.sigma), cfg, RngState(want.seed))
    assert_matches(res, want)


@pytest.mark.parametrize("want", PSO_GOLDEN, ids=case_id)
def test_run_pso_is_bit_identical(want):
    fn = make_function(want.function, dimension=want.dimension)
    cfg = baselines.PsoConfig(rs=want.rs, total_eval=want.budget)
    res = baselines.run_pso(fn, NoiseModel(0.0, want.sigma), cfg, RngState(want.seed))
    assert_matches(res, want)
