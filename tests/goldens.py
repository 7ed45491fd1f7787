"""Frozen reference values for the bundled data.

Weight columns, ratings and errors are 4-decimal published reference
figures for the six-scenario fixture; tolerances absorb that rounding, and
``test_scenarios.py`` also pins 132 of the 144 figures to every printed
digit. The other 12 are the scenario 3 eigenfactor column, which is
internally inconsistent as printed (it sums to 1.0001 and implies a
different rating than the one printed next to it), its rating and its
error: they carry a wider, separately documented tolerance. See
src/classrank/data/NOTES.md.
"""

WEIGHT_TOL = 5e-4
RATING_TOL = 5e-4
S3_EIGEN_WEIGHT_TOL = 1.2e-3
S3_EIGEN_RATING_TOL = 1e-3

SCENARIO_EXPECTED = {
    1: {
        "degree_weights": [0.1479, 0.1089, 0.0437, 0.1063, 0.1089,
                           0.1248, 0.1301, 0.0282, 0.1109, 0.0904],
        "eigenfactor_weights": [0.1473, 0.1124, 0.0478, 0.1059, 0.1082,
                                0.1240, 0.1328, 0.0203, 0.1100, 0.0912],
        "degree_rating": 3.9614,
        "eigenfactor_rating": 3.9767,
        "err_degree": 0.0386,
        "err_eigenfactor": 0.0233,
    },
    2: {
        "degree_weights": [0.1442, 0.1091, 0.0504, 0.1067, 0.1091,
                           0.1234, 0.1282, 0.0254, 0.1109, 0.0925],
        "eigenfactor_weights": [0.1462, 0.1124, 0.0498, 0.1061, 0.1083,
                                0.1236, 0.1321, 0.0197, 0.1100, 0.0919],
        "degree_rating": 3.9653,
        "eigenfactor_rating": 3.9774,
        "err_degree": 0.0347,
        "err_eigenfactor": 0.0226,
    },
    3: {
        "degree_weights": [0.1498, 0.1147, 0.0393, 0.1123, 0.0980,
                           0.1290, 0.1171, 0.0254, 0.1165, 0.0980],
        "eigenfactor_weights": [0.1480, 0.1143, 0.0461, 0.1080, 0.1045,
                                0.1255, 0.1282, 0.0196, 0.1120, 0.0939],
        "degree_rating": 3.9819,
        "eigenfactor_rating": 3.9832,
        "err_degree": 0.0181,
        "err_eigenfactor": 0.0168,
    },
    4: {
        "degree_weights": [0.1521, 0.1131, 0.0437, 0.1104, 0.1131,
                           0.1290, 0.1316, 0.0, 0.1151, 0.0919],
        "eigenfactor_weights": [0.1505, 0.1154, 0.0480, 0.1088, 0.1111,
                                0.1270, 0.1341, 0.0, 0.1129, 0.0921],
        "degree_rating": 4.0529,
        "eigenfactor_rating": 4.0420,
        "err_degree": 0.0529,
        "err_eigenfactor": 0.0420,
    },
    5: {
        "degree_weights": [0.1480, 0.1129, 0.0504, 0.1105, 0.1129,
                           0.1272, 0.1296, 0.0, 0.1147, 0.0938],
        "eigenfactor_weights": [0.1499, 0.1153, 0.0490, 0.1089, 0.1111,
                                0.1268, 0.1337, 0.0, 0.1129, 0.0924],
        "degree_rating": 4.0476,
        "eigenfactor_rating": 4.0413,
        "err_degree": 0.0476,
        "err_eigenfactor": 0.0413,
    },
    6: {
        "degree_weights": [0.1536, 0.1185, 0.0393, 0.1161, 0.1018,
                           0.1327, 0.1185, 0.0, 0.1202, 0.0994],
        "eigenfactor_weights": [0.1508, 0.1163, 0.0473, 0.1095, 0.1096,
                                0.1276, 0.1323, 0.0, 0.1136, 0.0929],
        "degree_rating": 4.0643,
        "eigenfactor_rating": 4.0436,
        "err_degree": 0.0643,
        "err_eigenfactor": 0.0436,
    },
}

ARITHMETIC_MEAN = 3.7
UNBIASED_MEAN = 4.0
ERR_MEAN = 0.3

# pooled dispersion figures for the bundled pre-counted CSVs; the combined
# percentages are printed as sums of rounded parts, hence the 0.01 slack
HELPFULNESS = {
    "total_n": 2224,
    "total_dev2": 330,
    "total_dev3plus": 319,
    "pct_dev2": 14.84,
    "pct_dev3plus": 14.34,
    "pct_dev2plus": 29.18,
}
CLARITY = {
    "total_n": 2224,
    "total_dev2": 291,
    "total_dev3plus": 305,
    "pct_dev2": 13.08,
    "pct_dev3plus": 13.71,
    "pct_dev2plus": 26.79,
}
PCT_TOL = 0.01
