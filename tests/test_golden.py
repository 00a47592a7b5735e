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
        total_eval=3937,
        total_unchanged=344,
        trace=[
            (0, 766, 6.597771672652526e-07, 10, 4),
            (1, 956, 6.597771672652526e-07, 8, 1),
            (2, 1145, 6.597771672652526e-07, 2, 1),
            (3, 1325, 6.597771672652526e-07, 1, 1),
            (4, 1505, 6.597771672652526e-07, 1, 1),
            (5, 1685, 6.597771672652526e-07, 1, 1),
            (6, 1865, 6.597771672652526e-07, 1, 1),
            (7, 2045, 6.597771672652526e-07, 1, 1),
            (8, 2225, 6.597771672652526e-07, 1, 1),
            (9, 2405, 6.597771672652526e-07, 1, 1),
            (10, 2585, 6.597771672652526e-07, 1, 1),
            (11, 2765, 6.597771672652526e-07, 1, 1),
            (12, 2945, 6.597771672652526e-07, 1, 1),
            (13, 3125, 6.597771672652526e-07, 1, 1),
            (14, 3305, 6.597771672652526e-07, 1, 1),
            (15, 3487, 6.597771672652526e-07, 1, 1),
            (16, 3667, 6.597771672652526e-07, 1, 1),
            (17, 3847, 6.597771672652526e-07, 1, 1),
            (18, 3937, 6.597771672652526e-07, 1, 1),
        ],
    ),
    Golden(
        function='sphere', dimension=5, sigma=0.5, rs=1, budget=500, seed=16,
        params=dict(ga=GaParams(pop_size=20, n_elites=2)),
        best_fitness=929.1154676668252,
        best_genome=[
            -19.449968632539054,
            1.6753528968334839,
            -1.2348631552735183,
            -7.076291175511715,
            22.280228830024765,
        ],
        total_eval=492,
        total_unchanged=28,
        trace=[
            (0, 56, 1160.2993758592756, 10, 1),
            (1, 94, 1122.6250501766951, 5, 1),
            (2, 132, 1092.615866596752, 2, 1),
            (3, 170, 1085.9466530551913, 1, 1),
            (4, 208, 1069.3820238166381, 1, 1),
            (5, 246, 1051.4371836725275, 1, 1),
            (6, 284, 1028.15957426473, 1, 1),
            (7, 322, 1011.5390456692202, 1, 1),
            (8, 360, 997.0292766739436, 1, 1),
            (9, 398, 977.3353505900354, 1, 1),
            (10, 436, 955.7793245598625, 1, 1),
            (11, 474, 938.4240477969886, 1, 1),
            (12, 492, 929.1154676668252, 1, 1),
        ],
    ),
    Golden(
        function='griewank', dimension=10, sigma=0.5, rs=1, budget=4000, seed=12,
        best_fitness=0.0038596230127532216,
        best_genome=[
            99.96109909942545,
            99.93261085951994,
            100.03583637994856,
            99.98078637105904,
            99.99942290508737,
            100.11658113394566,
            100.00394973433754,
            100.00259970467161,
            100.0671741166886,
            99.91989102008687,
        ],
        total_eval=3953,
        total_unchanged=328,
        trace=[
            (0, 1163, 0.005657569068610924, 10, 4),
            (1, 1343, 0.004932682997974891, 8, 1),
            (2, 1523, 0.004932682997974891, 1, 1),
            (3, 1703, 0.0038596230127532216, 1, 1),
            (4, 1883, 0.0038596230127532216, 1, 1),
            (5, 2063, 0.0038596230127532216, 1, 1),
            (6, 2243, 0.0038596230127532216, 1, 1),
            (7, 2423, 0.0038596230127532216, 1, 1),
            (8, 2603, 0.0038596230127532216, 1, 1),
            (9, 2783, 0.0038596230127532216, 1, 1),
            (10, 2963, 0.0038596230127532216, 1, 1),
            (11, 3143, 0.0038596230127532216, 1, 1),
            (12, 3323, 0.0038596230127532216, 1, 1),
            (13, 3503, 0.0038596230127532216, 1, 1),
            (14, 3683, 0.0038596230127532216, 1, 1),
            (15, 3863, 0.0038596230127532216, 1, 1),
            (16, 3953, 0.0038596230127532216, 1, 1),
        ],
    ),
    Golden(
        function='rastrigin1', dimension=10, sigma=0.0, rs=3, budget=6000, seed=13,
        best_fitness=7.519812806461587,
        best_genome=[
            0.06330212184841331,
            -0.03917837868960868,
            -0.051747379421558826,
            0.0521761826371453,
            -0.037231154332876215,
            -0.11485629411333251,
            -0.03543286380489699,
            0.10601489003814815,
            0.03070611283266689,
            0.0059197654090665745,
        ],
        total_eval=5841,
        total_unchanged=402,
        trace=[
            (0, 3474, 26.61943220894625, 10, 4),
            (1, 3960, 26.61943220894625, 10, 5),
            (2, 4452, 26.61943220894625, 8, 3),
            (3, 5010, 22.978833470554335, 7, 1),
            (4, 5571, 10.304721803351441, 3, 1),
            (5, 5841, 7.519812806461587, 1, 1),
        ],
    ),
    Golden(
        function='rosenbrock', dimension=10, sigma=0.3, rs=1, budget=4000, seed=14,
        best_fitness=8096.209378023632,
        best_genome=[
            -0.13180635095779158,
            1.3591044408280426,
            -0.17350293047897034,
            -1.5897540367719536,
            0.538644149204662,
            1.3522184444653442,
            1.487336735413805,
            1.1496697353030494,
            -2.91951611708956,
            15.443392828891428,
        ],
        total_eval=3996,
        total_unchanged=185,
        trace=[
            (0, 1151, 222206.34601537779, 10, 5),
            (1, 1336, 185039.0216953971, 10, 3),
            (2, 1526, 45949.29103122612, 2, 1),
            (3, 1716, 45056.34845444147, 1, 1),
            (4, 1906, 40460.70172098427, 1, 1),
            (5, 2096, 37289.2983628264, 1, 1),
            (6, 2286, 34279.8669005648, 1, 1),
            (7, 2476, 31166.24448212634, 1, 1),
            (8, 2666, 27977.758334219314, 1, 1),
            (9, 2856, 26299.287875866823, 1, 1),
            (10, 3046, 24659.61760293148, 1, 1),
            (11, 3236, 21877.24335740132, 1, 1),
            (12, 3426, 18692.10272500397, 1, 1),
            (13, 3616, 15177.586373250926, 1, 1),
            (14, 3806, 12050.220980248632, 1, 1),
            (15, 3996, 8096.209378023632, 1, 1),
        ],
    ),
    Golden(
        function='rastrigin1', dimension=5, sigma=0.5, rs=1, budget=4000, seed=15,
        params=dict(radius_fraction=0.01, max_clusters=4),
        best_fitness=0.0022844827461554473,
        best_genome=[
            -0.0008514437475529018,
            0.00041422439488142295,
            0.00010359982287774528,
            -0.0024726487051260934,
            -0.0021198859893975094,
        ],
        total_eval=3917,
        total_unchanged=364,
        trace=[
            (0, 758, 6.6958229711963995, 4, 2),
            (1, 931, 6.6958229711963995, 4, 2),
            (2, 1112, 6.6958229711963995, 4, 1),
            (3, 1292, 1.0231209285353629, 4, 2),
            (4, 1482, 0.045104467407583115, 4, 1),
            (5, 1667, 0.045104467407583115, 4, 2),
            (6, 1847, 0.018968434783118937, 4, 1),
            (7, 2027, 0.005776506962888561, 4, 1),
            (8, 2207, 0.005776506962888561, 4, 1),
            (9, 2387, 0.004469631487467041, 4, 1),
            (10, 2567, 0.004469631487467041, 4, 1),
            (11, 2747, 0.004469631487467041, 2, 1),
            (12, 2927, 0.004469631487467041, 4, 1),
            (13, 3107, 0.004469631487467041, 3, 1),
            (14, 3287, 0.0022844827461554473, 4, 1),
            (15, 3467, 0.0022844827461554473, 4, 1),
            (16, 3647, 0.0022844827461554473, 4, 1),
            (17, 3827, 0.0022844827461554473, 4, 1),
            (18, 3917, 0.0022844827461554473, 4, 1),
        ],
    ),
    Golden(
        function='rosenbrock', dimension=5, sigma=0.5, rs=1, budget=4000, seed=15,
        params=dict(radius_fraction=0.01, max_clusters=4),
        best_fitness=381.18892203579094,
        best_genome=[
            -0.19049899773657264,
            0.011702379880684413,
            -1.8320210913178099,
            3.8673788517954684,
            15.039800118023816,
        ],
        total_eval=3979,
        total_unchanged=202,
        trace=[
            (0, 764, 22548.342560272744, 4, 2),
            (1, 944, 9087.447417958732, 4, 1),
            (2, 1129, 7756.079031890167, 4, 2),
            (3, 1319, 5012.837796519267, 4, 1),
            (4, 1509, 3423.7753418273996, 1, 1),
            (5, 1699, 2270.721249465995, 1, 1),
            (6, 1889, 1649.7396312925753, 1, 1),
            (7, 2079, 1466.134054863195, 1, 1),
            (8, 2269, 1195.8507883355035, 1, 1),
            (9, 2459, 954.1969242837705, 1, 1),
            (10, 2649, 725.419637712074, 1, 1),
            (11, 2839, 566.3846307028093, 1, 1),
            (12, 3029, 457.1203648809538, 1, 1),
            (13, 3219, 416.32888882540334, 1, 1),
            (14, 3409, 391.5381834505446, 1, 1),
            (15, 3599, 385.16216299482966, 1, 1),
            (16, 3789, 382.4852241749571, 1, 1),
            (17, 3979, 381.18892203579094, 1, 1),
        ],
    ),
]

CGA_GOLDEN = [
    Golden(
        function='sphere', dimension=5, sigma=1.0, rs=2, budget=3000, seed=21,
        best_fitness=2.787575026957006,
        best_genome=[
            0.1354778388076494,
            0.29043340154900604,
            -0.7540416772220802,
            -0.26187534219660735,
            -1.4309827656457677,
        ],
        total_eval=2720,
        total_unchanged=280,
        trace=[
            (0, 200, 2704.7574621895583, 0, 0),
            (1, 380, 514.5481266743454, 0, 0),
            (2, 560, 345.5210134540679, 0, 0),
            (3, 740, 145.05593520360563, 0, 0),
            (4, 920, 98.64066476102298, 0, 0),
            (5, 1100, 25.06288241035066, 0, 0),
            (6, 1280, 10.235076053118895, 0, 0),
            (7, 1460, 5.992637271762429, 0, 0),
            (8, 1640, 5.734885934518364, 0, 0),
            (9, 1820, 4.601654466821262, 0, 0),
            (10, 2000, 4.186413775211253, 0, 0),
            (11, 2180, 3.330013754800567, 0, 0),
            (12, 2360, 3.2018111762896635, 0, 0),
            (13, 2540, 2.787575026957006, 0, 0),
            (14, 2720, 2.787575026957006, 0, 0),
        ],
    ),
    Golden(
        function='griewank', dimension=10, sigma=0.0, rs=1, budget=2000, seed=22,
        best_fitness=5.16701152188202,
        best_genome=[
            50.15988296207388,
            56.39978033519242,
            62.147446942278776,
            67.69438413880248,
            191.92234594423016,
            112.44651413655556,
            82.37984974495575,
            81.79338256422629,
            74.51028895438708,
            120.49266592486566,
        ],
        total_eval=1810,
        total_unchanged=190,
        trace=[
            (0, 100, 101.96202959250105, 0, 0),
            (1, 190, 20.877844136893014, 0, 0),
            (2, 280, 19.6971409383055, 0, 0),
            (3, 370, 14.756131902456834, 0, 0),
            (4, 460, 11.021978938306166, 0, 0),
            (5, 550, 7.651614203617454, 0, 0),
            (6, 640, 5.989113228917612, 0, 0),
            (7, 730, 5.910219314757161, 0, 0),
            (8, 820, 5.661960553596746, 0, 0),
            (9, 910, 5.416488793674144, 0, 0),
            (10, 1000, 5.318749957540647, 0, 0),
            (11, 1090, 5.318749957540647, 0, 0),
            (12, 1180, 5.273720868340698, 0, 0),
            (13, 1270, 5.209235872449209, 0, 0),
            (14, 1360, 5.2058911221454425, 0, 0),
            (15, 1450, 5.186431827072082, 0, 0),
            (16, 1540, 5.186431827072082, 0, 0),
            (17, 1630, 5.175156321034949, 0, 0),
            (18, 1720, 5.175156321034949, 0, 0),
            (19, 1810, 5.16701152188202, 0, 0),
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
